//! Property suite for the wire decoders: [`Request::decode`] and [`Response::decode`] take
//! bytes straight off a socket, so no input may make them panic, every truncation of a
//! valid frame must come back as a typed [`ServiceError`], and whatever they accept must be
//! the one canonical encoding of the value they return.

use arbcolor::dynamic::{GraphUpdate, RepairStrategy};
use arbcolor_graph::Vertex;
use arbcolor_service::protocol::{Request, Response, ServiceError, ServiceStats};
use proptest::collection::vec;
use proptest::prelude::*;

/// Any `u64`.
fn word() -> std::ops::RangeInclusive<u64> {
    0..=u64::MAX
}

fn vertices(max_len: usize) -> impl Strategy<Value = Vec<Vertex>> {
    vec(word(), 0..max_len).prop_map(|vs| vs.into_iter().map(|v| v as Vertex).collect())
}

fn text() -> impl Strategy<Value = String> {
    vec(0u32..0x3000, 0..8).prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

fn request() -> impl Strategy<Value = Request> {
    let update = (0u8..2, vec((word(), word()), 0..4)).prop_map(|(kind, edges)| {
        let edges = edges.into_iter().map(|(u, v)| (u as Vertex, v as Vertex)).collect();
        if kind == 0 {
            GraphUpdate::InsertEdges(edges)
        } else {
            GraphUpdate::RemoveEdges(edges)
        }
    });
    prop_oneof![
        vec(update, 0..4).prop_map(Request::Apply),
        vertices(6).prop_map(Request::QueryColors),
        (0u8..2, word()).prop_map(|(has, epoch)| Request::Snapshot((has == 1).then_some(epoch))),
        Just(Request::Stats),
        Just(Request::Compact),
        Just(Request::Verify),
        Just(Request::Shutdown),
    ]
}

fn strategy() -> impl Strategy<Value = RepairStrategy> {
    prop_oneof![
        Just(RepairStrategy::NoConflict),
        Just(RepairStrategy::LocalRepair),
        Just(RepairStrategy::FullRecolor),
    ]
}

fn service_error() -> impl Strategy<Value = ServiceError> {
    prop_oneof![
        text().prop_map(|reason| ServiceError::Malformed { reason }),
        (word(), word()).prop_map(|(len, max)| ServiceError::FrameTooLarge { len, max }),
        (word(), word()).prop_map(|(vertex, n)| ServiceError::VertexOutOfRange { vertex, n }),
        word().prop_map(|vertex| ServiceError::SelfLoop { vertex }),
        (word(), word(), word()).prop_map(|(requested, oldest, newest)| {
            ServiceError::EpochUnavailable { requested, oldest, newest }
        }),
        word().prop_map(|millis| ServiceError::Timeout { millis }),
        text().prop_map(|reason| ServiceError::Internal { reason }),
    ]
}

fn response() -> impl Strategy<Value = Response> {
    let applied = (
        (word(), word(), word()),
        (word(), word(), word()),
        strategy(),
        (0u8..2, word(), word(), word()),
    )
        .prop_map(
            |(
                (epoch, submitted_edges, new_edges),
                (removed_edges, frontier, repaired),
                strategy,
                (has, before, after, recolored),
            )| Response::Applied {
                epoch,
                submitted_edges,
                new_edges,
                removed_edges,
                frontier,
                repaired,
                strategy,
                compacted: (has == 1).then_some((before, after, recolored)),
            },
        );
    let stats = vec(word(), 11..12).prop_map(|x| {
        Response::Stats(ServiceStats {
            n: x[0],
            m: x[1],
            epoch: x[2],
            colors: x[3],
            max_degree: x[4],
            batches: x[5],
            new_edges: x[6],
            removed_edges: x[7],
            repaired: x[8],
            compactions: x[9],
            queries: x[10],
        })
    });
    prop_oneof![
        applied,
        vec(word(), 0..6).prop_map(Response::Colors),
        (word(), vec(word(), 0..6))
            .prop_map(|(epoch, colors)| Response::Snapshot { epoch, colors }),
        stats,
        (word(), word(), word(), word()).prop_map(
            |(epoch, colors_before, colors_after, recolored)| Response::Compacted {
                epoch,
                colors_before,
                colors_after,
                recolored,
            }
        ),
        (0u8..2, word())
            .prop_map(|(legal, conflicts)| Response::Verified { legal: legal == 1, conflicts }),
        Just(Response::ShuttingDown),
        service_error().prop_map(Response::Error),
    ]
}

/// Decodes `payload` both ways; whatever either decoder accepts must re-encode to exactly
/// `payload`.
fn accepted_payloads_are_canonical(payload: &[u8]) -> Result<(), String> {
    if let Ok(request) = Request::decode(payload) {
        prop_assert_eq!(request.encode(), payload, "request {:?} is not canonical", request);
    }
    if let Ok(response) = Response::decode(payload) {
        prop_assert_eq!(response.encode(), payload, "response {:?} is not canonical", response);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn valid_frames_round_trip_and_every_strict_prefix_is_malformed(
        request in request(),
        response in response(),
    ) {
        let bytes = request.encode();
        prop_assert_eq!(Request::decode(&bytes), Ok(request.clone()));
        for len in 0..bytes.len() {
            let decoded = Request::decode(&bytes[..len]);
            prop_assert!(
                matches!(decoded, Err(ServiceError::Malformed { .. })),
                "{}-byte prefix of {:?} decoded to {:?}", len, request, decoded
            );
        }
        let bytes = response.encode();
        prop_assert_eq!(Response::decode(&bytes), Ok(response.clone()));
        for len in 0..bytes.len() {
            let decoded = Response::decode(&bytes[..len]);
            prop_assert!(
                matches!(decoded, Err(ServiceError::Malformed { .. })),
                "{}-byte prefix of {:?} decoded to {:?}", len, response, decoded
            );
        }
    }

    #[test]
    fn flipped_bytes_never_panic_and_decode_only_to_canonical_frames(
        request in request(),
        response in response(),
        (at, mask) in (0usize..1 << 16, 1u8..=255),
    ) {
        for mut bytes in [request.encode(), response.encode()] {
            let i = at % bytes.len();
            bytes[i] ^= mask;
            accepted_payloads_are_canonical(&bytes)?;
        }
    }

    #[test]
    fn random_payloads_never_panic_and_decode_only_to_canonical_frames(
        tag in 0u8..9,
        body in vec(0u8..=255, 0..48),
        raw in vec(0u8..=255, 0..12),
    ) {
        // Current version and a plausible tag, so most cases get past the header.
        let payload: Vec<u8> = [1, tag].into_iter().chain(body).collect();
        accepted_payloads_are_canonical(&payload)?;
        accepted_payloads_are_canonical(&raw)?;
    }
}
