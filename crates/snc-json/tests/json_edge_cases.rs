//! Edge-case pinning for `snc_json` — the parser behind
//! both the experiment reports and the `snc-server` wire format.
//!
//! With PR 5 the server can *replay* wire bodies from the response
//! cache, so every quirk of the parser is now load-bearing twice: once
//! when a request is parsed into a cache key, and again when a cached
//! body is parsed back into a job result. These tests lock the current
//! behavior explicitly — duplicate keys, the nesting-depth boundary,
//! lone surrogates, `-0.0`, and exponent round-trips — so any future
//! change to it is a deliberate, visible decision rather than silent
//! cache-key drift.

use snc_json::{parse, Json};

#[test]
fn duplicate_keys_are_preserved_in_order_and_get_returns_the_first() {
    let doc = parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap();
    // The parser is not a validator here: RFC 8259 leaves duplicate-key
    // handling to the implementation, and ours keeps every member.
    let members = doc.as_object().unwrap();
    assert_eq!(members.len(), 3);
    assert_eq!(members[0], ("a".to_string(), Json::UInt(1)));
    assert_eq!(members[2], ("a".to_string(), Json::UInt(3)));
    // Lookup semantics: first occurrence wins (what the wire layer sees).
    assert_eq!(doc.get("a"), Some(&Json::UInt(1)));
    // Rendering round-trips the duplicates verbatim.
    assert_eq!(doc.render(), r#"{"a":1,"b":2,"a":3}"#);
    assert_eq!(parse(&doc.render()).unwrap(), doc);
}

#[test]
fn nesting_depth_cap_sits_exactly_between_129_and_130() {
    // MAX_DEPTH is 128 and the root value parses at depth 0, so 129
    // nested arrays are legal (innermost parses at depth 128) and 130
    // are not. Lock the exact boundary: an off-by-one either way would
    // change which cached bodies replay.
    let ok = "[".repeat(129) + &"]".repeat(129);
    assert!(parse(&ok).is_ok(), "129 levels must parse");
    let too_deep = "[".repeat(130) + &"]".repeat(130);
    let err = parse(&too_deep).unwrap_err();
    assert!(err.message.contains("nesting too deep"), "{err}");
    // Objects count against the same budget as arrays, and a member
    // *value* costs one more level than the empty-array probe above:
    // 127 wrapping arrays put the object at depth 127 and its member
    // value at the cap, 128 push the member value over it.
    let mixed_ok = "[".repeat(127) + "{\"k\":0}" + &"]".repeat(127);
    assert!(parse(&mixed_ok).is_ok(), "member value exactly at the cap");
    let mixed_deep = "[".repeat(128) + "{\"k\":0}" + &"]".repeat(128);
    assert!(parse(&mixed_deep).is_err(), "member value one past the cap");
}

#[test]
fn lone_surrogates_are_rejected_in_every_position() {
    // High surrogate with nothing after it.
    assert!(parse("\"\\uD800\"").is_err());
    // High surrogate followed by a non-escape character.
    assert!(parse("\"\\uD800x\"").is_err());
    // High surrogate followed by a non-\u escape.
    assert!(parse("\"\\uD800\\n\"").is_err());
    // High surrogate followed by a \u escape that is not a low surrogate.
    assert!(parse("\"\\uD800\\u0041\"").is_err());
    // High surrogate followed by another high surrogate.
    assert!(parse("\"\\uD834\\uD834\"").is_err());
    // Low surrogate on its own, and leading a pair.
    assert!(parse("\"\\uDC00\"").is_err());
    assert!(parse("\"\\uDC00\\uD800\"").is_err());
    // A correct pair still decodes.
    assert_eq!(parse("\"\\uD834\\uDD1E\"").unwrap(), Json::str("𝄞"));
    // Surrogate halves cannot arrive as raw bytes in a &str at all, so
    // escape sequences are the only channel — and it is closed.
}

#[test]
fn negative_zero_is_a_float_but_bare_minus_zero_is_the_integer_zero() {
    // "-0.0" carries a float marker, parses as f64, and keeps its sign.
    let neg = parse("-0.0").unwrap();
    match neg {
        Json::Num(x) => {
            assert_eq!(x, 0.0);
            assert!(x.is_sign_negative(), "-0.0 keeps its sign bit");
        }
        other => panic!("expected Num, got {other:?}"),
    }
    // …and renders as Rust's shortest round-trip for -0.0, which is "-0".
    assert_eq!(neg.render(), "-0");
    // Bare "-0" has no float marker: it takes the integer path, where
    // i64 has no signed zero — the sign is lost. This asymmetry is the
    // current contract; byte-exact cache replay depends on it staying.
    let int = parse("-0").unwrap();
    assert_eq!(int, Json::Int(0));
    assert_eq!(int.render(), "0");
    // Round-trip stability from there on: "-0" → "0" → UInt(0) → "0".
    assert_eq!(parse(&int.render()).unwrap(), Json::UInt(0));
    // "-0e0" is a float again.
    assert_eq!(parse("-0e0").unwrap().render(), "-0");
}

#[test]
fn exponent_forms_normalize_through_shortest_roundtrip_rendering() {
    // Exponent input is legal; rendering uses Rust's shortest
    // round-trip `Display`, which never emits exponent notation — so
    // the *byte form* normalizes (sometimes to a long positional form)
    // while the value is preserved exactly.
    for (input, value, rendered) in [
        ("1e3", 1000.0, "1000"),
        ("1E3", 1000.0, "1000"),
        ("1.5e2", 150.0, "150"),
        ("2.5e-3", 0.0025, "0.0025"),
        ("1e-7", 1e-7, "0.0000001"),
        ("12e30", 1.2e31, "12000000000000000000000000000000"),
    ] {
        let v = parse(input).unwrap();
        assert_eq!(v.as_f64(), Some(value), "{input}");
        assert_eq!(v.render(), rendered, "{input}");
        // A second parse/render cycle is a fixed point — the property
        // cached-body replay relies on.
        assert_eq!(parse(&v.render()).unwrap().render(), rendered, "{input}");
    }
}

#[test]
fn integer_overflow_falls_back_to_f64_and_infinite_exponents_are_errors() {
    // u64::MAX parses exactly…
    assert_eq!(parse("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
    // …one more digit overflows into (lossy) f64 — locked, not lossless.
    let big = parse("184467440737095516150").unwrap();
    assert_eq!(big, Json::Num(u64::MAX as f64 * 10.0));
    // i64::MIN parses exactly; one less overflows to f64.
    assert_eq!(parse("-9223372036854775808").unwrap(), Json::Int(i64::MIN));
    assert!(matches!(
        parse("-9223372036854775809").unwrap(),
        Json::Num(_)
    ));
    // Values that overflow f64 itself are rejected (JSON has no Inf).
    for bad in ["1e999", "-1e999", "1e400"] {
        let err = parse(bad).unwrap_err();
        assert!(err.message.contains("invalid number"), "{bad}: {err}");
    }
}

#[test]
fn malformed_number_tokens_are_single_errors_not_splits() {
    // The number scanner consumes [-0-9.eE+] greedily, so these are
    // each ONE bad token (never "1" followed by trailing garbage).
    for bad in ["1.2.3", "1e", "1e+", "--1", "1-2", "0x10", ".5", "+1", "-"] {
        assert!(parse(bad).is_err(), "accepted {bad:?}");
    }
    // Leading zeros are tolerated by the current scanner (u64::parse
    // accepts them) — lock that too, it is part of the cache-key space.
    assert_eq!(parse("007").unwrap(), Json::UInt(7));
}
