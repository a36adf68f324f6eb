//! End-to-end tests of the `maestro-cli` binary against the sample
//! schematics in `assets/`.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_maestro-cli"))
}

fn asset(name: &str) -> String {
    // Tests run from the package dir (crates/maestro); assets live at the
    // workspace root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.push("../../assets");
    p.push(name);
    p.to_string_lossy().into_owned()
}

#[test]
fn estimate_mnl_prints_standard_cell_numbers() {
    let out = cli()
        .args(["estimate", &asset("full_adder.mnl")])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("module `full_adder`"), "{text}");
    assert!(text.contains("standard-cell:"), "{text}");
}

#[test]
fn estimate_spice_prints_full_custom_numbers() {
    let out = cli()
        .args(["estimate", &asset("nmos_nand2.sp")])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("full-custom"), "{text}");
}

#[test]
fn estimate_json_output_parses_as_results_db() {
    let out = cli()
        .args(["estimate", &asset("counter4.mnl"), "--json"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let db = maestro::estimator::ResultsDb::from_json(&text).expect("valid JSON results DB");
    assert!(db.record("counter4").is_some());
}

#[test]
fn estimate_with_rows_and_cmos_tech() {
    let out = cli()
        .args([
            "estimate",
            &asset("full_adder.mnl"),
            "--tech",
            "cmos",
            "--rows",
            "2",
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 rows"), "{text}");
}

#[test]
fn generate_prints_a_chip_summary_and_writes_parsable_mnl() {
    let dir = std::env::temp_dir().join("maestro-cli-generate-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("chip.mnl");
    let out = cli()
        .args(["generate", "datapath:5k", "--out", &path.to_string_lossy()])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("chip `datapath_5000`"), "{text}");
    // The emitted file is real input: every module parses back, device
    // accounting intact.
    let mnl = std::fs::read_to_string(&path).expect("mnl written");
    let modules = maestro::netlist::mnl::parse_design(&mnl).expect("generated mnl parses");
    assert!(modules.len() > 1, "multi-module chip");
    let devices: usize = modules.iter().map(|m| m.device_count()).sum();
    // The summary line accounts for exactly the devices that were written,
    // and the total lands within one module of the requested 5000.
    assert!(
        text.contains(&format!("{devices} devices")),
        "summary device count disagrees with the file: {text} vs {devices}"
    );
    assert!(
        (4_000..6_000).contains(&devices),
        "device count {devices} lands near the target"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn generate_rejects_a_bad_spec() {
    let out = cli()
        .args(["generate", "castle:10k"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("castle"), "{err}");
}

#[test]
fn estimate_stream_matches_batch_json_per_module() {
    // Streaming emits one compact JSON record per line; the batch path
    // emits one pretty-printed ResultsDb. Parsed, they must agree.
    let batch = cli()
        .args(["estimate", &asset("table1.mnl"), "--json"])
        .output()
        .expect("runs");
    assert!(batch.status.success());
    let db = maestro::estimator::ResultsDb::from_json(&String::from_utf8_lossy(&batch.stdout))
        .expect("batch output parses");
    let streamed = cli()
        .args([
            "estimate",
            &asset("table1.mnl"),
            "--json",
            "--stream",
            "--jobs",
            "2",
        ])
        .output()
        .expect("runs");
    assert!(
        streamed.status.success(),
        "{}",
        String::from_utf8_lossy(&streamed.stderr)
    );
    let stdout = String::from_utf8_lossy(&streamed.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), db.len(), "one record line per module");
    let mut from_stream = maestro::estimator::ResultsDb::new();
    for line in &lines {
        // Each line is one EstimateRecord; wrap it in the DB envelope the
        // batch path emits so the two parse through the same schema.
        let db_line = format!("{{\"records\":[{line}]}}");
        let one = maestro::estimator::ResultsDb::from_json(&db_line).expect("record line parses");
        for rec in one.records() {
            from_stream.insert(rec.clone());
        }
    }
    assert_eq!(
        from_stream.to_json().unwrap(),
        db.to_json().unwrap(),
        "streamed records re-serialize to the batch database"
    );
    // The tally goes to stderr, leaving stdout pure protocol.
    let err = String::from_utf8_lossy(&streamed.stderr);
    assert!(err.contains("streamed"), "{err}");
}

#[test]
fn estimate_streams_a_generated_family_without_input_files() {
    let out = cli()
        .args(["estimate", "--generate", "tree:2k", "--stream"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("module `parity_256__u0`"), "{text}");
    assert!(text.contains("standard-cell:"), "{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("device(s)"), "{err}");
}

/// A scratch directory of its own for one test.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("maestro-cli-{test}"));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The compact record lines a `--stream --json` run printed, parsed.
fn stream_records(stdout: &[u8]) -> Vec<maestro::estimator::EstimateRecord> {
    String::from_utf8_lossy(stdout)
        .lines()
        .map(|line| serde_json::from_str(line).expect("record line parses"))
        .collect()
}

#[test]
fn estimate_streams_a_multi_wave_file_record_for_record() {
    let dir = scratch_dir("stream-file-test");
    let path = dir.join("chip.mnl").to_string_lossy().into_owned();
    let generated = cli()
        .args(["generate", "mixed:20k", "--out", &path])
        .output()
        .expect("runs");
    assert!(generated.status.success());
    let batch = cli()
        .args(["estimate", &path, "--json"])
        .output()
        .expect("runs");
    assert!(batch.status.success());
    let db = maestro::estimator::ResultsDb::from_json(&String::from_utf8_lossy(&batch.stdout))
        .expect("batch output parses");
    for jobs in ["1", "2"] {
        let streamed = cli()
            .args(["estimate", &path, "--stream", "--json", "--jobs", jobs])
            .output()
            .expect("runs");
        let err = String::from_utf8_lossy(&streamed.stderr);
        assert!(streamed.status.success(), "{err}");
        // The file must span several waves of `--jobs 2` shards.
        let wave = 2 * maestro::estimator::pipeline::DEFAULT_SHARD_NET_BUDGET;
        let nets: usize = err
            .split(" net(s)")
            .next()
            .and_then(|head| head.rsplit(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("net tally in {err}"));
        assert!(nets > 3 * wave, "{nets} nets");
        let records = stream_records(&streamed.stdout);
        assert_eq!(records.as_slice(), db.records(), "--jobs {jobs}");
        let mut from_stream = maestro::estimator::ResultsDb::new();
        for rec in records {
            from_stream.insert(rec);
        }
        assert_eq!(from_stream.to_json().unwrap(), db.to_json().unwrap());
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn estimate_stream_keeps_input_order_across_files_and_generated_chips() {
    let args = [
        "estimate",
        &asset("nmos_nand2.sp"),
        &asset("table1.mnl"),
        "--generate",
        "tree:2k",
        "--json",
    ];
    let batch = cli().args(args).output().expect("runs");
    assert!(batch.status.success());
    let db = maestro::estimator::ResultsDb::from_json(&String::from_utf8_lossy(&batch.stdout))
        .expect("batch output parses");
    let streamed = cli().args(args).arg("--stream").output().expect("runs");
    assert!(
        streamed.status.success(),
        "{}",
        String::from_utf8_lossy(&streamed.stderr)
    );
    let names: Vec<String> = stream_records(&streamed.stdout)
        .into_iter()
        .map(|rec| rec.module_name)
        .collect();
    let expected: Vec<&str> = db
        .records()
        .iter()
        .map(|r| r.module_name.as_str())
        .collect();
    assert_eq!(names, expected);
    assert_eq!(names[0], "nand2", "the deck comes first");
    let table1 = maestro::netlist::mnl::parse_design(
        &std::fs::read_to_string(asset("table1.mnl")).expect("asset reads"),
    )
    .expect("asset parses");
    for (name, module) in names[1..].iter().zip(&table1) {
        assert_eq!(name, module.name(), "then the .mnl file, in file order");
    }
    assert_eq!(names[1 + table1.len()], "parity_256__u0", "then the chip");
}

#[test]
fn estimate_stream_prints_the_records_before_a_parse_error() {
    let dir = scratch_dir("stream-parse-error-test");
    let first = "module first;\ninput a;\noutput y;\ndevice u INV (A=a, Y=y);\nendmodule\n";
    // The second module's device line (7) lacks its `;`.
    let broken = format!("{first}module second;\ndevice u INV (A=a, Y=y)\nendmodule\n");
    let (good, bad) = (dir.join("first.mnl"), dir.join("broken.mnl"));
    std::fs::write(&good, first).expect("write");
    std::fs::write(&bad, broken).expect("write");
    let bad = bad.to_string_lossy().into_owned();
    let reference = cli()
        .args(["estimate", &good.to_string_lossy(), "--stream", "--json"])
        .output()
        .expect("runs");
    assert!(reference.status.success());
    assert_eq!(reference.stdout.iter().filter(|&&b| b == b'\n').count(), 1);
    let message =
        format!("{bad}: line 8: unexpected token: expected `;`, found Ident(\"endmodule\")");
    for jobs in ["1", "2"] {
        let streamed = cli()
            .args(["estimate", &bad, "--stream", "--json", "--jobs", jobs])
            .output()
            .expect("runs");
        assert!(!streamed.status.success());
        assert_eq!(
            String::from_utf8_lossy(&streamed.stdout),
            String::from_utf8_lossy(&reference.stdout),
            "exactly the first module's record"
        );
        let err = String::from_utf8_lossy(&streamed.stderr);
        assert!(err.contains(&message), "{err}");
    }
    let whole = cli()
        .args(["estimate", &bad, "--json"])
        .output()
        .expect("runs");
    assert!(!whole.status.success());
    assert!(whole.stdout.is_empty());
    let err = String::from_utf8_lossy(&whole.stderr);
    assert!(err.contains(&message), "{err}");
    let _ = std::fs::remove_dir_all(dir);
}

/// A generated `mixed:20k` chip's modules as canonical `.mnl` texts, in
/// file order, and the index of the last module of its second `--jobs 2`
/// wave (the engine weighs an unparsed module by its statements).
fn chip_modules(dir: &std::path::Path) -> (Vec<String>, usize) {
    let path = dir.join("chip.mnl").to_string_lossy().into_owned();
    let generated = cli()
        .args(["generate", "mixed:20k", "--out", &path])
        .output()
        .expect("runs");
    assert!(generated.status.success());
    let text = std::fs::read_to_string(&path).expect("chip reads");
    let modules: Vec<String> = maestro::netlist::mnl::split_design(&text)
        .expect("generated text is canonical")
        .into_iter()
        .map(str::to_owned)
        .collect();
    let wave = 2 * maestro::estimator::pipeline::DEFAULT_SHARD_NET_BUDGET;
    let (mut waves, mut weight) = (0, 0);
    for (i, module) in modules.iter().enumerate() {
        weight += module.matches(';').count();
        if weight >= wave {
            waves += 1;
            if waves == 2 {
                assert!(i + 10 < modules.len(), "waves follow the second");
                return (modules, i);
            }
            weight = 0;
        }
    }
    panic!("a mixed:20k chip spans more than two --jobs 2 waves");
}

/// Checks a failing `estimate FILE --stream --json` at `--jobs 1/2/8`
/// against non-stream runs: stdout holds exactly the records of `good`
/// (the modules before the failure), and stderr is what `estimate
/// REFERENCE --json` prints — the same file for a parse error, or the
/// modules through the failing one for an estimation error, which the
/// non-stream run would otherwise hide behind a later parse error.
fn assert_stream_fails_like(file: &str, good: &str, reference: &str) {
    let good = cli()
        .args(["estimate", good, "--json"])
        .output()
        .expect("runs");
    assert!(good.status.success());
    let db = maestro::estimator::ResultsDb::from_json(&String::from_utf8_lossy(&good.stdout))
        .expect("good prefix parses");
    let reference = cli()
        .args(["estimate", reference, "--json"])
        .output()
        .expect("runs");
    assert!(!reference.status.success());
    assert!(reference.stdout.is_empty());
    for jobs in ["1", "2", "8"] {
        let streamed = cli()
            .args(["estimate", file, "--stream", "--json", "--jobs", jobs])
            .output()
            .expect("runs");
        assert!(!streamed.status.success(), "--jobs {jobs}");
        assert_eq!(
            stream_records(&streamed.stdout).as_slice(),
            db.records(),
            "--jobs {jobs}: the records before the failure"
        );
        assert_eq!(
            String::from_utf8_lossy(&streamed.stderr),
            String::from_utf8_lossy(&reference.stderr),
            "--jobs {jobs}"
        );
    }
}

/// Writes `modules` as one `.mnl` file in `dir` and returns its path.
fn write_design(dir: &std::path::Path, name: &str, modules: &[String]) -> String {
    let path = dir.join(name);
    std::fs::write(&path, modules.concat()).expect("write");
    path.to_string_lossy().into_owned()
}

#[test]
fn estimate_stream_reports_a_bad_module_late_in_a_parallel_wave() {
    let dir = scratch_dir("stream-late-bad-module-test");
    let (mut modules, late) = chip_modules(&dir);
    // Drop the `;` before the module's `endmodule`: its text runs on into
    // the next module, and the parse fails at that `endmodule`.
    let end = modules[late]
        .rfind(";\nendmodule")
        .expect("a statement before endmodule");
    modules[late].remove(end);
    let file = write_design(&dir, "bad.mnl", &modules);
    let good = write_design(&dir, "good.mnl", &modules[..late]);
    let whole = cli()
        .args(["estimate", &file, "--json"])
        .output()
        .expect("runs");
    let err = String::from_utf8_lossy(&whole.stderr);
    assert!(
        err.starts_with(&format!("error: {file}: line "))
            && err.contains("found Ident(\"endmodule\")"),
        "{err}"
    );
    assert_stream_fails_like(&file, &good, &file);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn estimate_stream_reports_a_duplicate_module_across_waves() {
    let dir = scratch_dir("stream-duplicate-module-test");
    let (mut modules, late) = chip_modules(&dir);
    let first = modules[0].lines().next().expect("a header").to_owned();
    let header = modules[late].lines().next().expect("a header").to_owned();
    modules[late] = modules[late].replacen(&header, &first, 1);
    let file = write_design(&dir, "dup.mnl", &modules);
    let good = write_design(&dir, "good.mnl", &modules[..late]);
    let line = 1 + modules[..late].concat().lines().count();
    let whole = cli()
        .args(["estimate", &file, "--json"])
        .output()
        .expect("runs");
    let name = first.trim_start_matches("module ").trim_end_matches(';');
    assert_eq!(
        String::from_utf8_lossy(&whole.stderr),
        format!("error: {file}: line {line}: duplicate name: module `{name}` defined twice\n")
    );
    assert_stream_fails_like(&file, &good, &file);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn estimate_stream_reports_an_estimate_error_before_a_later_parse_error() {
    let dir = scratch_dir("stream-estimate-then-parse-error-test");
    let (mut modules, late) = chip_modules(&dir);
    // A template neither table knows, late in the second wave, then a
    // parse error a few modules on.
    let (device, rest) = modules[late]
        .split_once("\ndevice ")
        .map(|(head, tail)| (format!("{head}\ndevice "), tail.to_owned()))
        .expect("a device line");
    let (name, after) = rest.split_once(' ').expect("a template follows");
    let template_end = after.find(' ').expect("pins follow");
    modules[late] = format!("{device}{name} QUANTUM{}", &after[template_end..]);
    let header_end = modules[late + 3].find('\n').expect("a header") + 1;
    modules[late + 3].insert_str(header_end, "frobnicate;\n");
    let file = write_design(&dir, "bad.mnl", &modules);
    let good = write_design(&dir, "good.mnl", &modules[..late]);
    let through = write_design(&dir, "through.mnl", &modules[..=late]);
    let whole = cli()
        .args(["estimate", &file, "--json"])
        .output()
        .expect("runs");
    assert!(
        String::from_utf8_lossy(&whole.stderr).contains("unknown statement `frobnicate`"),
        "the non-stream run parses everything first"
    );
    assert_stream_fails_like(&file, &good, &through);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn expand_emits_parsable_transistor_mnl() {
    let out = cli()
        .args(["expand", &asset("full_adder.mnl")])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let module = maestro::netlist::mnl::parse(&text).expect("expanded output parses");
    assert!(
        module.device_count() > 20,
        "transistor count {}",
        module.device_count()
    );
}

#[test]
fn layout_routes_gate_level_input() {
    let out = cli()
        .args(["layout", &asset("full_adder.mnl"), "--rows", "2"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("standard-cell P&R"), "{text}");
    assert!(text.contains("tracks"), "{text}");
}

#[test]
fn floorplan_packs_multiple_files() {
    let out = cli()
        .args([
            "floorplan",
            &asset("full_adder.mnl"),
            &asset("counter4.mnl"),
            "--aspect",
            "1.5",
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("chip"), "{text}");
    assert!(text.contains("full_adder"), "{text}");
    assert!(text.contains("counter4"), "{text}");
}

#[test]
fn aspect_limits_below_one_or_not_finite_fail_cleanly() {
    for (command, limit) in [
        ("floorplan", "0.5"),
        ("floorplan", "NaN"),
        ("floorplan", "inf"),
        ("report", "0.5"),
    ] {
        let out = cli()
            .args([command, &asset("full_adder.mnl"), "--aspect", limit])
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command} {limit}: {stderr}");
        assert!(
            stderr.starts_with("error: --aspect must be a finite ratio ≥ 1"),
            "{command} {limit}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{command} {limit}: {stderr}");
        assert!(out.stdout.is_empty(), "{command} {limit}");
    }
}

#[test]
fn numeric_flags_outside_the_request_bounds_fail_cleanly() {
    // Every value is refused while the arguments are parsed, before any
    // thread starts.
    for (command, flag, value, range) in [
        ("estimate", "--rows", "0", "1..=64"),
        ("estimate", "--rows", "65", "1..=64"),
        ("layout", "--rows", "65", "1..=64"),
        ("estimate", "--jobs", "1025", "1..=1024"),
        ("report", "--replicas", "1025", "1..=1024"),
        ("layout", "--replicas", "0", "1..=1024"),
    ] {
        let out = cli()
            .args([command, &asset("counter4.mnl"), flag, value])
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{command} {flag} {value}: {stderr}"
        );
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(
            errors,
            [format!("error: {flag} must be in {range}, got {value}")],
            "{command} {flag} {value}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{command} {flag} {value}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{command} {flag} {value}");
    }
}

#[test]
fn a_spice_deck_with_a_repeated_port_fails_to_parse() {
    let dir = scratch_dir("dupport");
    let deck = dir.join("dupport.sp");
    std::fs::write(
        &deck,
        "* inverter\n.subckt inv a a y\nM1 y a gnd gnd pd\nM2 vdd y y gnd pu\n.ends\n",
    )
    .expect("writes the deck");
    let out = cli()
        .args(["estimate", &deck.to_string_lossy()])
        .output()
        .expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{stderr}");
    assert!(
        errors[0].ends_with("dupport.sp: line 2: duplicate name: port `a` declared twice"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn report_renders_markdown_with_floorplan() {
    let out = cli()
        .args([
            "report",
            &asset("full_adder.mnl"),
            &asset("counter4.mnl"),
            "--aspect",
            "2.0",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("# maestro design report"), "{text}");
    assert!(text.contains("shape candidates"), "{text}");
    assert!(text.contains("## chip floorplan"), "{text}");
    assert!(text.contains("logic depth"), "{text}");
}

/// Three designs in `dir`: module `m` is one inverter in a.mnl and three
/// in b.mnl, and c.mnl holds module `k`, one NAND2.
fn repeated_name_designs(dir: &std::path::Path) -> Vec<String> {
    let sources = [
        (
            "a.mnl",
            "module m;\ninput a;\noutput y;\ndevice u1 INV (A=a, Y=y);\nendmodule\n",
        ),
        (
            "b.mnl",
            "module m;\ninput a;\noutput y;\nnet n1, n2;\ndevice u1 INV (A=a, Y=n1);\n\
             device u2 INV (A=n1, Y=n2);\ndevice u3 INV (A=n2, Y=y);\nendmodule\n",
        ),
        (
            "c.mnl",
            "module k;\ninput a, b;\noutput y;\ndevice g1 NAND2 (A=a, B=b, Y=y);\nendmodule\n",
        ),
    ];
    sources
        .iter()
        .map(|(name, text)| write_design(dir, name, &[text.to_string()]))
        .collect()
}

#[test]
fn estimate_keeps_one_record_per_input_module_when_names_repeat() {
    let dir = scratch_dir("estimate-repeated-name-test");
    let files = repeated_name_designs(&dir);
    let run = |flags: &[&str]| -> Vec<u8> {
        let out = cli()
            .arg("estimate")
            .args(&files)
            .args(flags)
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let text = run(&[]);
    assert_eq!(
        String::from_utf8_lossy(&text),
        String::from_utf8_lossy(&run(&["--stream"])),
        "the batch prints every module the stream prints"
    );
    let db = maestro::estimator::ResultsDb::from_json(&String::from_utf8_lossy(&run(&["--json"])))
        .expect("valid JSON results DB");
    let names: Vec<&str> = db
        .records()
        .iter()
        .map(|r| r.module_name.as_str())
        .collect();
    assert_eq!(names, ["m", "m", "k"]);
    assert_eq!(db.records(), stream_records(&run(&["--stream", "--json"])));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn report_pairs_each_module_with_its_own_estimate_when_names_repeat() {
    let dir = scratch_dir("report-repeated-name-test");
    let files = repeated_name_designs(&dir);
    // The report's module sections, each without its trailing blank lines.
    let sections = |files: &[String]| -> Vec<String> {
        let out = cli().arg("report").args(files).output().expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .split("\n## ")
            .filter(|section| section.starts_with("module "))
            .map(|section| section.trim_end().to_owned())
            .collect()
    };
    let together = sections(&files);
    let alone: Vec<String> = files
        .iter()
        .flat_map(|file| sections(std::slice::from_ref(file)))
        .collect();
    assert_eq!(together, alone);
    let devices: Vec<&str> = together
        .iter()
        .map(|section| section.lines().nth(2).expect("a device line"))
        .collect();
    assert_eq!(
        devices,
        [
            "- devices: 1, nets: 2, ports: 2",
            "- devices: 3, nets: 4, ports: 2",
            "- devices: 1, nets: 3, ports: 3",
        ]
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn depth_reports_critical_path() {
    let out = cli()
        .args(["depth", &asset("full_adder.mnl")])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("logic depth 3"), "{text}");
    assert!(text.contains("->"), "{text}");
}

#[test]
fn layout_svg_flag_writes_a_drawing() {
    let dir = std::env::temp_dir().join("maestro-cli-svg-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("adder.svg");
    let out = cli()
        .args([
            "layout",
            &asset("full_adder.mnl"),
            "--rows",
            "2",
            "--svg",
            &path.to_string_lossy(),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let svg = std::fs::read_to_string(&path).expect("svg written");
    assert!(svg.starts_with("<svg") && svg.contains("<rect"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn estimate_trace_writes_parseable_jsonl_with_stage_spans() {
    let dir = std::env::temp_dir().join("maestro-cli-trace-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("run.jsonl");
    let out = cli()
        .args([
            "estimate",
            &asset("table1.mnl"),
            "--jobs",
            "4",
            "--trace",
            &trace_path.to_string_lossy(),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace_path).expect("trace written");
    let events = maestro::trace::report::parse_trace(&text).expect("every line parses");
    assert!(!events.is_empty());
    let span_names: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            maestro::trace::Event::Span { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    for expected in [
        "cli.estimate",
        "pipeline.run_all",
        "pipeline.worker",
        "pipeline.module",
    ] {
        assert!(
            span_names.contains(&expected),
            "missing {expected}: {span_names:?}"
        );
    }
    // ProbTable counters are always present, even on a full-custom-only
    // suite that never queries the cache.
    for counter in ["prob.hits", "prob.misses"] {
        assert!(
            events.iter().any(|e| matches!(
                e,
                maestro::trace::Event::Counter { name, .. } if name == counter
            )),
            "missing counter {counter}"
        );
    }
    // The resolve-once acceptance bar: over the Table 1 suite (5 modules,
    // 2 styles probed each) a fresh process resolves each (module, style)
    // exactly once — 10 misses, not one hit.
    let counter_total = |wanted: &str| -> u64 {
        events
            .iter()
            .filter_map(|e| match e {
                maestro::trace::Event::Counter { name, value, .. } if name == wanted => {
                    Some(*value)
                }
                _ => None,
            })
            .sum()
    };
    assert_eq!(counter_total("netlist.resolve.misses"), 10);
    assert_eq!(counter_total("netlist.resolve.hits"), 0);
    let _ = std::fs::remove_file(trace_path);
}

#[test]
fn perf_report_folds_a_trace_into_bench_json() {
    let dir = std::env::temp_dir().join("maestro-cli-perf-report-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("run.jsonl");
    let bench_path = dir.join("BENCH_cli_test.json");
    // The acceptance bar: per-stage self times must account for the wall
    // clock of the traced run. On a serial run they partition it to within
    // 5 %. Worker threads overlap in wall time, so with `--jobs 2` they
    // land between the wall clock and wall × thread count, with the same
    // 5 % slack. The `--jobs 2` trace is the one folded below.
    for jobs in ["1", "2"] {
        let run = cli()
            .args([
                "estimate",
                &asset("table1.mnl"),
                &asset("counter4.mnl"),
                "--jobs",
                jobs,
                "--trace",
                &trace_path.to_string_lossy(),
            ])
            .output()
            .expect("runs");
        assert!(run.status.success());
        let trace_text = std::fs::read_to_string(&trace_path).expect("trace readable");
        let events = maestro::trace::report::parse_trace(&trace_text).expect("trace parses");
        let report = maestro::trace::report::fold(&events, "check");
        let mut threads: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                maestro::trace::Event::Span { thread, .. } => Some(thread.as_str()),
                _ => None,
            })
            .collect();
        threads.sort_unstable();
        threads.dedup();
        let wall = report.wall_us as f64;
        let work = report.work_us as f64;
        assert!(wall > 0.0);
        assert!(
            work >= 0.95 * wall && work <= 1.05 * wall * threads.len() as f64,
            "--jobs {jobs}: stage self-times {work} µs vs wall {wall} µs \
             on {} thread(s) drift beyond 5%",
            threads.len()
        );
        if jobs == "1" {
            assert_eq!(threads.len(), 1, "a serial run stays on one thread");
        }
    }

    let out = cli()
        .args([
            "perf-report",
            &trace_path.to_string_lossy(),
            "--label",
            "cli_test",
            "--out",
            &bench_path.to_string_lossy(),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("perf report `cli_test`"), "{text}");

    let json = std::fs::read_to_string(&bench_path).expect("bench json written");
    assert!(json.contains("\"label\": \"cli_test\""), "{json}");
    assert!(json.contains("cli.estimate"), "{json}");
    let _ = std::fs::remove_file(trace_path);
    let _ = std::fs::remove_file(bench_path);
}

/// Records a quick traced estimate and returns the trace path.
fn record_trace(dir: &std::path::Path) -> PathBuf {
    std::fs::create_dir_all(dir).expect("temp dir");
    let trace_path = dir.join("run.jsonl");
    let run = cli()
        .args([
            "estimate",
            &asset("counter4.mnl"),
            "--trace",
            &trace_path.to_string_lossy(),
        ])
        .output()
        .expect("runs");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    trace_path
}

#[test]
fn perf_report_baseline_gate_passes_a_run_against_itself() {
    let dir = std::env::temp_dir().join("maestro-cli-gate-pass-test");
    let trace_path = record_trace(&dir);
    let baseline_path = dir.join("BENCH_baseline.json");
    let fold = cli()
        .args([
            "perf-report",
            &trace_path.to_string_lossy(),
            "--out",
            &baseline_path.to_string_lossy(),
        ])
        .output()
        .expect("runs");
    assert!(fold.status.success());
    // The same trace gated against its own fold can never regress, even
    // with a zero envelope and no noise floor.
    let gated = cli()
        .args([
            "perf-report",
            &trace_path.to_string_lossy(),
            "--out",
            &dir.join("BENCH_current.json").to_string_lossy(),
            "--baseline",
            &baseline_path.to_string_lossy(),
            "--max-regression",
            "0",
            "--noise-floor-us",
            "0",
        ])
        .output()
        .expect("runs");
    assert!(
        gated.status.success(),
        "{}",
        String::from_utf8_lossy(&gated.stderr)
    );
    let text = String::from_utf8_lossy(&gated.stdout);
    assert!(text.contains("no stage regressed"), "{text}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn perf_report_baseline_gate_fails_on_regression() {
    let dir = std::env::temp_dir().join("maestro-cli-gate-fail-test");
    let trace_path = record_trace(&dir);
    // An empty-stage baseline makes every current stage "new since
    // baseline"; with the noise floor off, that must fail the gate.
    let baseline_path = dir.join("BENCH_empty.json");
    std::fs::write(
        &baseline_path,
        "{\"label\": \"empty\", \"wall_us\": 1, \"work_us\": 1,\n \
         \"stages\": [], \"counters\": {}, \"metrics\": {}}",
    )
    .expect("baseline written");
    let gated = cli()
        .args([
            "perf-report",
            &trace_path.to_string_lossy(),
            "--out",
            &dir.join("BENCH_current.json").to_string_lossy(),
            "--baseline",
            &baseline_path.to_string_lossy(),
            "--noise-floor-us",
            "0",
        ])
        .output()
        .expect("runs");
    assert!(!gated.status.success(), "gate must fail");
    let err = String::from_utf8_lossy(&gated.stderr);
    assert!(err.contains("regressed"), "{err}");
    assert!(err.contains("new since baseline"), "{err}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn perf_report_rejects_a_malformed_trace() {
    let dir = std::env::temp_dir().join("maestro-cli-bad-trace-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bad.jsonl");
    std::fs::write(&path, "this is not json\n").expect("written");
    let out = cli()
        .args(["perf-report", &path.to_string_lossy()])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("trace line 1"), "{err}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = cli().args(["frobnicate", "x.mnl"]).output().expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn missing_file_fails_cleanly() {
    let out = cli()
        .args(["estimate", "/definitely/not/here.mnl"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn bad_flag_fails_cleanly() {
    let out = cli()
        .args(["estimate", &asset("full_adder.mnl"), "--frob"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

/// Runs the CLI with stdout on a pipe, reads its first bytes, then
/// closes the pipe while the command is still writing, as `| head -c`
/// does.
fn close_stdout_early(args: &[&str]) -> std::process::Output {
    use std::io::Read;
    use std::process::Stdio;
    let mut child = cli()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("runs");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut head = [0u8; 100];
    stdout
        .read_exact(&mut head)
        .expect("the first bytes arrive");
    drop(stdout);
    child.wait_with_output().expect("exits")
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    // Both outputs are several times the size of a pipe buffer, so the
    // command is still writing when the reader goes away.
    for stream in [false, true] {
        let mut args = vec![
            "estimate",
            "--generate",
            "mixed:20k",
            "--tech",
            "cmos",
            "--json",
        ];
        if stream {
            args.push("--stream");
        }
        let out = close_stdout_early(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "stream={stream}: {:?}: {err}",
            out.status
        );
        assert!(err.is_empty(), "stream={stream}: {err}");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn a_full_stdout_fails_with_a_write_error() {
    for stream in [false, true] {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("/dev/full opens");
        let mut cmd = cli();
        cmd.args(["estimate", &asset("table1.mnl")]);
        if stream {
            cmd.arg("--stream");
        }
        let out = cmd.stdout(full).output().expect("runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "stream={stream}: {err}");
        assert!(err.starts_with("error: write: "), "stream={stream}: {err}");
        assert!(!err.contains("invalid netlist"), "stream={stream}: {err}");
    }
}

/// Runs `estimate` on one `.mnl` source, whole and streamed, and returns
/// the one error line both print.
fn estimate_error(test: &str, source: &str) -> String {
    let dir = scratch_dir(test);
    let file = dir.join("design.mnl");
    std::fs::write(&file, source).expect("writes the design");
    let file = file.to_string_lossy().into_owned();
    let mut lines = Vec::new();
    for stream in [false, true] {
        let mut cmd = cli();
        cmd.args(["estimate", &file]);
        if stream {
            cmd.arg("--stream");
        }
        let out = cmd.output().expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "stream={stream}: {stderr}");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "stream={stream}: {stderr}");
        lines.push(errors[0].to_owned());
    }
    let _ = std::fs::remove_dir_all(dir);
    assert_eq!(lines[0], lines[1], "streamed and whole runs agree");
    lines.swap_remove(0)
}

#[test]
fn an_empty_module_is_named_as_empty() {
    assert_eq!(
        estimate_error("empty-module", "module e;\nendmodule\n"),
        "error: invalid netlist: module `e` has no devices"
    );
}

#[test]
fn an_unknown_template_names_its_own_device() {
    assert_eq!(
        estimate_error(
            "unknown-template",
            "module m;\ninput a;\noutput y;\n\
             device u1 INV (A=a, Y=t);\ndevice u2 WARP (A=t, Y=y);\nendmodule\n"
        ),
        "error: device `u2` uses unknown template `WARP`"
    );
}

#[test]
fn mixed_cell_and_transistor_templates_name_one_device_of_each() {
    assert_eq!(
        estimate_error(
            "mixed-templates",
            "module x;\ninput a;\noutput y;\n\
             device u1 INV (A=a, Y=t);\ndevice m1 pd (D=y, G=t, S=gnd);\nendmodule\n"
        ),
        "error: invalid netlist: module `x` mixes cell and transistor templates: \
         device `u1` uses cell `INV`, device `m1` uses transistor `pd`"
    );
}

/// A spawned daemon, killed and reaped if the test fails before it exits.
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_socket_leaves_a_regular_file_at_its_path_alone() {
    let dir = scratch_dir("serve-socket-file");
    let file = dir.join("precious.txt");
    std::fs::write(&file, "keep me").expect("the file is written");
    let out = cli()
        .args(["serve", "--socket"])
        .arg(&file)
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(out.stdout.is_empty());
    assert_eq!(std::fs::read(&file).expect("the file is kept"), b"keep me");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn serve_socket_answers_an_estimate_and_exits_on_shutdown() {
    use maestro::estimator::request::{EstimateRequest, Request, RequestCall, Response};
    use std::io::{BufRead, BufReader, Read, Write};
    use std::os::unix::net::UnixStream;
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let dir = scratch_dir("serve-socket");
    let socket = dir.join("daemon.sock");
    let mut daemon = Daemon(
        cli()
            .args(["serve", "--socket"])
            .arg(&socket)
            .stderr(Stdio::piped())
            .spawn()
            .expect("the daemon starts"),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    let stream = loop {
        match UnixStream::connect(&socket) {
            Ok(stream) => break stream,
            Err(e) => {
                assert!(Instant::now() < deadline, "the socket never accepted: {e}");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    };
    let mut reader = BufReader::new(stream.try_clone().expect("the stream clones"));
    let mut ask = |request: Request| {
        writeln!(&stream, "{}", request.to_json_line()).expect("the request is written");
        let mut line = String::new();
        reader.read_line(&mut line).expect("the answer is read");
        Response::parse(line.trim_end()).expect("the answer parses")
    };

    let file = asset("counter4.mnl");
    let estimate = ask(Request {
        id: "e1".to_owned(),
        call: RequestCall::Estimate(EstimateRequest {
            files: vec![file.clone()],
            mnl: Vec::new(),
            tech: "nmos".to_owned(),
            rows: None,
            jobs: 1,
            json: false,
            incremental: false,
        }),
    });
    let one_shot = cli().args(["estimate", &file]).output().expect("runs");
    assert_eq!(
        estimate.result.as_deref(),
        Ok(String::from_utf8_lossy(&one_shot.stdout).as_ref())
    );
    let bye = ask(Request {
        id: "bye".to_owned(),
        call: RequestCall::Shutdown,
    });
    assert_eq!(bye.id, "bye");

    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("the daemon is polled") {
            break status;
        }
        assert!(Instant::now() < deadline, "the daemon did not exit");
        std::thread::sleep(Duration::from_millis(5));
    };
    let mut stderr = String::new();
    daemon
        .0
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("stderr reads");
    assert_eq!(status.code(), Some(0), "{stderr}");
    assert_eq!(stderr, "serve: answered 2 request(s), 0 error(s)\n");
    assert!(!socket.exists(), "the socket file is unlinked");
    let _ = std::fs::remove_dir_all(dir);
}
