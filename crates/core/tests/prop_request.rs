//! Property tests for the serve-protocol JSON codec: every request and
//! response must survive a wire round trip byte-exactly, and every
//! adversarial mutation — truncation, unknown fields, out-of-range
//! parameters — must come back as a structured error, never a panic.

use maestro_estimator::prob::MAX_ROWS;
use maestro_estimator::request::{
    EstimateRequest, FloorplanRequest, LayoutRequest, ReportRequest, Request, RequestCall,
    Response, FLOORPLAN_BACKENDS, MAX_FANOUT,
};
use proptest::prelude::*;

/// A deterministic string with protocol-hostile content: quotes,
/// backslashes, control characters, non-ASCII, JSON syntax. Built from a
/// seed because the vendored proptest has no string strategies.
fn wild_string(seed: u64) -> String {
    const PIECES: &[&str] = &[
        "module m;",
        "a\"quoted\"b",
        "back\\slash",
        "line\nbreak",
        "tab\there",
        "null\u{0}byte",
        "λ²-area",
        "{\"not\":\"a field\"}",
        "end}",
        "commas,,and:colons",
        "\r\u{1b}[31m",
        "日本語",
    ];
    let mut out = String::new();
    let mut state = seed;
    for _ in 0..(seed % 4 + 1) {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.push_str(PIECES[(state >> 33) as usize % PIECES.len()]);
    }
    out
}

/// Builds one valid request of the kind selected by `kind`, with all
/// string fields drawn from [`wild_string`].
fn build_request(kind: u8, seed: u64, rows: u32, fanout: u32, aspect_milli: u32) -> Request {
    let id = format!("id-{seed}-{}", wild_string(seed ^ 0xa5));
    let files = vec![wild_string(seed), format!("{}.mnl", seed % 100)];
    let mnl = vec![wild_string(seed ^ 0x3c)];
    let tech = ["nmos", "cmos", "custom.json"][(seed % 3) as usize].to_owned();
    let rows = seed.is_multiple_of(2).then_some(rows);
    let aspect = seed
        .is_multiple_of(3)
        .then_some(aspect_milli as f64 / 1000.0);
    let backend = FLOORPLAN_BACKENDS[(seed % FLOORPLAN_BACKENDS.len() as u64) as usize].to_owned();
    let call = match kind {
        0 => RequestCall::Estimate(EstimateRequest {
            files,
            mnl,
            tech,
            rows,
            jobs: fanout,
            json: seed % 2 == 1,
            incremental: seed.is_multiple_of(5),
        }),
        1 => RequestCall::Layout(LayoutRequest {
            files,
            mnl,
            tech,
            rows,
            replicas: fanout,
            warm: seed.is_multiple_of(5),
        }),
        2 => RequestCall::Floorplan(FloorplanRequest {
            files,
            mnl,
            tech,
            aspect,
            replicas: fanout,
            backend,
        }),
        3 => RequestCall::Report(ReportRequest {
            files,
            mnl,
            tech,
            aspect,
            replicas: fanout,
            backend,
        }),
        4 => RequestCall::CacheStats,
        _ => RequestCall::Shutdown,
    };
    Request { id, call }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_round_trip_byte_exactly(
        kind in 0u8..=5,
        seed in 0u64..u64::MAX,
        rows in 1u32..=MAX_ROWS,
        fanout in 1u32..=MAX_FANOUT,
        aspect_milli in 1_000u32..=20_000,
    ) {
        let request = build_request(kind, seed, rows, fanout, aspect_milli);
        let line = request.to_json_line();
        prop_assert!(!line.contains('\n'), "JSON-lines framing broke: {line:?}");
        let back = Request::parse(&line).expect("own output parses");
        prop_assert_eq!(&back, &request, "line: {}", line);
        // Serialization is canonical: a second trip is byte-identical.
        prop_assert_eq!(back.to_json_line(), line);
    }

    #[test]
    fn truncated_request_lines_always_error(
        kind in 0u8..=5,
        seed in 0u64..u64::MAX,
        cut_permille in 0u32..1000,
    ) {
        let line = build_request(kind, seed, 2, 1, 1000).to_json_line();
        // Any strict prefix leaves the top-level object unterminated —
        // cut at a char boundary chosen proportionally along the line.
        let cut = (line.len() as u64 * cut_permille as u64 / 1000) as usize;
        let cut = (0..=cut).rev().find(|&i| line.is_char_boundary(i)).unwrap_or(0);
        let err = Request::parse(&line[..cut]).expect_err("truncation must not parse");
        prop_assert!(!err.message.is_empty());
    }

    #[test]
    fn unknown_fields_are_rejected_with_the_id_recovered(
        kind in 0u8..=5,
        seed in 0u64..u64::MAX,
    ) {
        let request = build_request(kind, seed, 2, 1, 1000);
        let line = request.to_json_line();
        // Splice an extra field before the closing brace; `zz_` never
        // collides with a schema field.
        let spliced = format!("{},\"zz_{}\":1}}", &line[..line.len() - 1], seed % 97);
        let err = Request::parse(&spliced).expect_err("unknown field must not parse");
        prop_assert!(err.message.contains("unknown field"), "{}", err.message);
        prop_assert_eq!(err.id.as_deref(), Some(request.id.as_str()));
    }

    #[test]
    fn out_of_range_parameters_are_rejected(
        bad_rows in (MAX_ROWS + 1)..=u32::MAX,
        bad_fanout in (MAX_FANOUT + 1)..=u32::MAX,
        seed in 0u64..u64::MAX,
    ) {
        for line in [
            format!("{{\"id\":\"x\",\"kind\":\"estimate\",\"files\":[\"a\"],\"rows\":{bad_rows}}}"),
            "{\"id\":\"x\",\"kind\":\"estimate\",\"files\":[\"a\"],\"rows\":0}".to_owned(),
            format!("{{\"id\":\"x\",\"kind\":\"estimate\",\"files\":[\"a\"],\"jobs\":{bad_fanout}}}"),
            "{\"id\":\"x\",\"kind\":\"layout\",\"files\":[\"a\"],\"replicas\":0}".to_owned(),
            format!(
                "{{\"id\":\"x\",\"kind\":\"floorplan\",\"files\":[\"a\"],\"aspect\":-{}}}",
                seed % 1000 + 1
            ),
            "{\"id\":\"x\",\"kind\":\"report\",\"files\":[\"a\"],\"aspect\":0}".to_owned(),
            "{\"id\":\"x\",\"kind\":\"floorplan\",\"files\":[\"a\"],\"aspect\":0.5}".to_owned(),
            format!(
                "{{\"id\":\"x\",\"kind\":\"report\",\"files\":[\"a\"],\"aspect\":0.{}}}",
                seed % 999 + 1
            ),
        ] {
            let err = Request::parse(&line).expect_err(&line);
            prop_assert_eq!(err.id.as_deref(), Some("x"), "{}", line);
        }
    }

    #[test]
    fn responses_round_trip_with_hostile_payloads(
        seed in 0u64..u64::MAX,
        ok in 0u8..=1,
    ) {
        let body = wild_string(seed);
        let response = if ok == 1 {
            Response::ok(wild_string(seed ^ 0xff), body)
        } else {
            Response::error(wild_string(seed ^ 0xff), body)
        };
        let line = response.to_json_line();
        prop_assert!(!line.contains('\n'), "JSON-lines framing broke: {line:?}");
        let back = Response::parse(&line).expect("own output parses");
        prop_assert_eq!(back, response);
    }
}
