//! Decoder totality: every decoder that reads untrusted input returns on any
//! input instead of panicking. That covers the RPQ parser (and what runs on
//! its output), the snapshot file and payload decoders, and the WAL record
//! and stream decoders. Recovery reads the last two from disk, so a panic
//! there turns a damaged file into a crash instead of an error.
//!
//! The properties assert nothing about the result: each call only has to
//! come back. Uniform noise almost never gets past a magic number, so the
//! byte generators also build header-valid short files and damage valid
//! encodings (truncate, flip a bit, overwrite or insert a byte).

use graph_store::snapshot::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use graph_store::wal::{decode_wal_bytes, encode_wal_header};
use graph_store::{
    HostRowSnapshot, Label, LocalModuleSnapshot, NodeId, SnapshotState, WalOp, WalRecord,
};
use proptest::prelude::*;
use rpq::Nfa;

/// The characters the RPQ grammar gives meaning to, plus space.
const QUERY_ALPHABET: &[u8] = b"0123456789./|*+?(){},^ ";

fn query_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0..QUERY_ALPHABET.len(), 0..24)
        .prop_map(|picks| picks.into_iter().map(|i| QUERY_ALPHABET[i] as char).collect())
}

fn byte() -> impl Strategy<Value = u8> {
    (0u16..256).prop_map(|b| b as u8)
}

fn noise(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(byte(), 0..max_len)
}

/// One way to damage an encoding: `(kind, position, value)`.
fn damage() -> impl Strategy<Value = (u8, usize, u8)> {
    (0u8..4, 0usize..4096, byte())
}

fn apply_damage(mut bytes: Vec<u8>, (kind, at, value): (u8, usize, u8)) -> Vec<u8> {
    let at = at % (bytes.len() + 1);
    match kind {
        0 => bytes.truncate(at),
        1 if at < bytes.len() => bytes[at] ^= 1 << (value % 8),
        2 if at < bytes.len() => bytes[at] = value,
        _ => bytes.insert(at, value),
    }
    bytes
}

/// Small labelled edge lists over a few nodes.
fn edges(max_len: usize) -> impl Strategy<Value = Vec<(NodeId, NodeId, Label)>> {
    prop::collection::vec((0u64..64, 0u64..64, 0u16..4), 0..max_len)
        .prop_map(|raw| raw.into_iter().map(|(s, d, l)| (NodeId(s), NodeId(d), Label(l))).collect())
}

/// A snapshot with every section populated from one edge list.
fn snapshot_state() -> impl Strategy<Value = SnapshotState> {
    (edges(12), 1usize..4, 0u64..8).prop_map(|(edges, modules, last_seq)| {
        let row = |&(s, d, l): &(NodeId, NodeId, Label)| (s, vec![(d, l)]);
        SnapshotState {
            last_seq,
            edge_count: edges.len() as u64,
            local_modules: (0..modules)
                .map(|m| LocalModuleSnapshot {
                    rows: edges
                        .iter()
                        .filter(|e| e.0 .0 as usize % modules == m)
                        .map(row)
                        .collect(),
                    capacity_bytes: (m > 0).then_some(1 << 20),
                })
                .collect(),
            host_rows: edges
                .iter()
                .take(1)
                .map(|&(s, d, l)| HostRowSnapshot {
                    node: s,
                    slots: vec![(d, l), (NodeId(u64::MAX), Label::ANY)],
                    free: vec![1],
                })
                .collect(),
            assignment_slots: edges.iter().map(|e| (e.0 .0 % 3) as u32).collect(),
            degrees: edges.iter().map(|&(s, d, _)| (s, d.0)).collect(),
            promotions: edges.iter().take(2).map(|e| e.0).collect(),
            adjacency_rows: edges.iter().map(row).collect(),
            adjacency_id_bound: 64,
        }
    })
}

/// Snapshot file images: noise, header-valid files too short to hold
/// their payload and CRC, and damaged valid files.
fn snapshot_file() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        noise(64),
        (0u64..8, noise(12)).prop_map(|(payload_len, tail)| {
            let mut file = SNAPSHOT_MAGIC.to_vec();
            file.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
            file.extend_from_slice(&payload_len.to_le_bytes());
            file.extend_from_slice(&tail);
            file
        }),
        (snapshot_state(), damage()).prop_map(|(s, d)| apply_damage(s.encode_file(), d)),
    ]
}

/// Snapshot payloads: noise and damaged valid payloads.
fn snapshot_payload() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        noise(64),
        (snapshot_state(), damage()).prop_map(|(s, d)| apply_damage(s.encode_payload(), d)),
    ]
}

fn wal_record() -> impl Strategy<Value = WalRecord> {
    (0u64..100, 0u8..2, edges(6)).prop_map(|(seq, op, edges)| WalRecord {
        seq,
        op: if op == 0 { WalOp::Insert } else { WalOp::Delete },
        edges,
    })
}

/// WAL record payloads: noise, a header (seq, op, edge count) with a short
/// body, and damaged valid payloads.
fn wal_payload() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        noise(48),
        (0u8..4, 0u32..4, noise(40)).prop_map(|(op, count, body)| {
            let mut payload = 7u64.to_le_bytes().to_vec();
            payload.push(op);
            payload.extend_from_slice(&count.to_le_bytes());
            payload.extend_from_slice(&body);
            payload
        }),
        (wal_record(), damage()).prop_map(|(r, d)| apply_damage(r.encode_payload(), d)),
    ]
}

/// WAL byte streams: noise, a valid file header followed by a short or
/// garbled frame, and damaged valid logs.
fn wal_stream() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        noise(64),
        (0u32..64, noise(24)).prop_map(|(frame_len, rest)| {
            let mut bytes = Vec::new();
            encode_wal_header(&mut bytes);
            bytes.extend_from_slice(&frame_len.to_le_bytes());
            bytes.extend_from_slice(&rest);
            bytes
        }),
        (prop::collection::vec(wal_record(), 0..4), damage()).prop_map(|(records, d)| {
            let mut bytes = Vec::new();
            encode_wal_header(&mut bytes);
            for record in &records {
                record.encode_frame(&mut bytes);
            }
            apply_damage(bytes, d)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn rpq_parser_and_its_consumers_never_panic(text in query_text()) {
        if let Ok(expr) = rpq::parser::parse(&text) {
            let normal = expr.normalize();
            let reversed = expr.reverse();
            for e in [&expr, &normal, &reversed] {
                let _ = Nfa::from_expr(e);
            }
        }
    }

    #[test]
    fn snapshot_decoders_never_panic(file in snapshot_file(), payload in snapshot_payload()) {
        let _ = SnapshotState::decode_file(&file);
        let _ = SnapshotState::decode_payload(&file);
        let _ = SnapshotState::decode_payload(&payload);
    }

    #[test]
    fn wal_decoders_never_panic(payload in wal_payload(), stream in wal_stream()) {
        let _ = WalRecord::decode_payload(&payload);
        let _ = decode_wal_bytes(&stream);
    }
}
