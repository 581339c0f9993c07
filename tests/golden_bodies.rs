//! Golden response bodies of `POST /solve`.
//!
//! Every seeded solve request must always get the same response bytes.
//! This suite pins those bytes for the MAXCUT surface: all four circuit
//! families, every graph form the wire accepts (a Figure-4 dataset,
//! inline `edges`, a seeded `gnp` generator, positive `weighted_edges`)
//! at replica widths 1 and 8, signed `weighted_edges` for the families
//! that accept them, and the LIF-Trevisan rejection of signed weights.
//! Each body is pinned by its length and an FNV-1a digest of its bytes
//! (the digest `crates/snc-linalg/tests/sdp_golden.rs` uses for solver
//! outputs).
//!
//! The requests travel over real TCP through the public endpoint, so
//! the suite calls no solver or render function directly and survives
//! any refactor that keeps the wire contract. A change that is *meant*
//! to alter response bytes must regenerate the affected rows in the same
//! commit and say why; on a mismatch the failure message prints every
//! moved row in table syntax.

mod common;
use common::corpus::{family_cases, signed_cases};
use common::{roundtrip, start_server};

/// FNV-1a over the body bytes.
fn digest(body: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in body.as_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(case, status, body length, FNV-1a digest)`.
type Golden = (&'static str, u16, usize, u64);

const GOLDEN: &[Golden] = &[
    ("lif-gw/dataset/r1", 200, 335, 0xcd8222ba7f06cac6),
    ("lif-gw/dataset/r8", 200, 317, 0xd48c5ae18063a96c),
    ("lif-gw/edges/r1", 200, 229, 0x459634664077505c),
    ("lif-gw/edges/r8", 200, 214, 0xe0b5fe17143b362d),
    ("lif-gw/gnp/r1", 200, 294, 0x9a846b701614f5d2),
    ("lif-gw/gnp/r8", 200, 279, 0xe7054b9250d0363b),
    ("lif-gw/weighted/r1", 200, 294, 0x296b6a1ccd807f74),
    ("lif-gw/weighted/r8", 200, 270, 0x227dbc3c9c78d2f5),
    ("lif-trevisan/dataset/r1", 200, 319, 0x10b8d0e765de6c9f),
    ("lif-trevisan/dataset/r8", 200, 304, 0x80a0aef69ba80112),
    ("lif-trevisan/edges/r1", 200, 229, 0x96100d5744628395),
    ("lif-trevisan/edges/r8", 200, 222, 0x6f57cb7172dc67d9),
    ("lif-trevisan/gnp/r1", 200, 287, 0xc912f70c58cbd979),
    ("lif-trevisan/gnp/r8", 200, 272, 0xcbf28b5c8081f61a),
    ("lif-trevisan/weighted/r1", 200, 254, 0x6b11868048333505),
    ("lif-trevisan/weighted/r8", 200, 262, 0xb3d4740914abb1a4),
    ("lif-annealed/dataset/r1", 200, 341, 0xa94c4257d17a34fe),
    ("lif-annealed/dataset/r8", 200, 323, 0x8fd623e6257131d4),
    ("lif-annealed/edges/r1", 200, 235, 0x350d24a16eee7984),
    ("lif-annealed/edges/r8", 200, 220, 0xdb41b1bc68b84cf5),
    ("lif-annealed/gnp/r1", 200, 300, 0xe38ce39764f4ccb3),
    ("lif-annealed/gnp/r8", 200, 285, 0x4c95c9588f6cae04),
    ("lif-annealed/weighted/r1", 200, 301, 0x98e7f1212cc2b3fc),
    ("lif-annealed/weighted/r8", 200, 276, 0xc1569de9b8dc491d),
    ("hopfield/dataset/r1", 200, 323, 0x63116980eb87768c),
    ("hopfield/dataset/r8", 200, 305, 0x1e7e7b8a37ff88a4),
    ("hopfield/edges/r1", 200, 233, 0x7f037c6d01b8a915),
    ("hopfield/edges/r8", 200, 218, 0x5022f013309a7596),
    ("hopfield/gnp/r1", 200, 283, 0xa1185e08b87c0d97),
    ("hopfield/gnp/r8", 200, 268, 0x83c5786b5a5dab3e),
    ("hopfield/weighted/r1", 200, 283, 0x0e57277767b038e7),
    ("hopfield/weighted/r8", 200, 258, 0xb81d4cb54a319960),
    ("lif-gw/signed/r1", 200, 268, 0x3d9cc4f4341eca71),
    ("lif-gw/signed/r8", 200, 253, 0x785bc66730e9a961),
    ("lif-annealed/signed/r1", 200, 274, 0x9268fd818d3db699),
    ("lif-annealed/signed/r8", 200, 259, 0xefffeb35eea0d709),
    ("hopfield/signed/r1", 200, 256, 0x07d8bfd936e4e7e7),
    ("hopfield/signed/r8", 200, 241, 0x832c72279423037e),
    ("lif-trevisan/signed/r1", 400, 59, 0xbb1ab2a0d8900c8e),
];

/// Sends every `(case, body)` request to one fresh server and compares
/// each response with its golden row.
fn check(cases: &[(String, String)]) {
    let handle = start_server(|cfg| cfg.threads = 2);
    let addr = handle.addr();
    let mut moved = Vec::new();
    for (name, body) in cases {
        let (status, response) = roundtrip(addr, "POST", "/solve", body);
        let got = (status, response.len(), digest(&response));
        let want = GOLDEN
            .iter()
            .find(|g| g.0 == name)
            .map(|&(_, s, l, d)| (s, l, d));
        if want != Some(got) {
            moved.push(format!(
                "    (\"{name}\", {}, {}, {:#018x}),",
                got.0, got.1, got.2
            ));
        }
    }
    handle.shutdown();
    assert!(
        moved.is_empty(),
        "{} response bodies moved; their current rows:\n{}",
        moved.len(),
        moved.join("\n")
    );
}

#[test]
fn lif_gw_bodies() {
    check(&family_cases("lif-gw"));
}

#[test]
fn lif_trevisan_bodies() {
    check(&family_cases("lif-trevisan"));
}

#[test]
fn lif_annealed_bodies() {
    check(&family_cases("lif-annealed"));
}

#[test]
fn hopfield_bodies() {
    check(&family_cases("hopfield"));
}

#[test]
fn signed_weight_bodies() {
    check(&signed_cases());
}
