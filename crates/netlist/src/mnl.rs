//! The `.mnl` structural netlist language.
//!
//! The paper requires "the circuit schematic expressed in a standard
//! hardware description language" (§3). `.mnl` (maestro netlist) is the
//! minimal structural format carrying exactly what the estimator consumes:
//!
//! ```text
//! # a full adder on standard cells
//! module full_adder;
//! input a, b, cin;
//! output sum, cout;
//! net t1, t2, t3;
//! device x1 XOR2 (A=a, B=b, Y=t1);
//! device x2 XOR2 (A=t1, B=cin, Y=sum);
//! device a1 AND2 (A=a, B=b, Y=t2);
//! device a2 AND2 (A=t1, B=cin, Y=t3);
//! device o1 OR2 (A=t2, B=t3, Y=cout);
//! endmodule
//! ```
//!
//! Identifiers are `[A-Za-z_][A-Za-z0-9_]*`; `#` starts a line comment;
//! nets may be declared lazily by first use inside a `device` binding.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::iter::FusedIterator;

use crate::{Module, ModuleBuilder, NetId, NetlistError, ParseErrorKind, PortDirection};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token<'a> {
    Ident(&'a str),
    Semi,
    Comma,
    LParen,
    RParen,
    Equals,
}

/// A token and the 1-based line it sits on.
type Spanned<'a> = (Token<'a>, usize);

/// The lexer plus one token of lookahead. It walks the source on demand,
/// so a lexical error surfaces only when parsing reaches it, and every
/// identifier is a slice of the source, never a copy.
struct Tokens<'a> {
    source: &'a str,
    /// Byte offset of the next unread character. It only ever moves past
    /// whole characters, so it always sits on a char boundary.
    pos: usize,
    /// Line of `pos`.
    line: usize,
    /// Line of the last token lexed: where an unexpected end is reported.
    last_line: usize,
    peeked: Option<Spanned<'a>>,
}

impl<'a> Tokens<'a> {
    fn new(source: &'a str) -> Self {
        Tokens {
            source,
            pos: 0,
            line: 1,
            last_line: 1,
            peeked: None,
        }
    }

    /// Lexes the next token, or `None` at the end of the source.
    fn lex(&mut self) -> Result<Option<Spanned<'a>>, NetlistError> {
        let bytes = self.source.as_bytes();
        while let Some(&byte) = bytes.get(self.pos) {
            let token = match byte {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                    continue;
                }
                b' ' | b'\t' | b'\r' => {
                    self.pos += 1;
                    continue;
                }
                b'#' => {
                    // A comment runs to the end of its line.
                    self.pos = bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(bytes.len(), |n| self.pos + n);
                    continue;
                }
                b';' => Token::Semi,
                b',' => Token::Comma,
                b'(' => Token::LParen,
                b')' => Token::RParen,
                b'=' => Token::Equals,
                b if b.is_ascii_alphabetic() || b == b'_' => {
                    let start = self.pos;
                    self.pos = bytes[start..]
                        .iter()
                        .position(|&b| !(b.is_ascii_alphanumeric() || b == b'_'))
                        .map_or(bytes.len(), |n| start + n);
                    self.last_line = self.line;
                    return Ok(Some((
                        Token::Ident(&self.source[start..self.pos]),
                        self.line,
                    )));
                }
                _ => {
                    // One whole character past the ASCII cases: the rest
                    // of Unicode whitespace, or a stray.
                    let c = self.source[self.pos..].chars().next().unwrap_or_default();
                    if !c.is_whitespace() {
                        return Err(NetlistError::parse(
                            ParseErrorKind::UnexpectedToken,
                            self.line,
                            format!("unexpected character `{c}`"),
                        ));
                    }
                    self.pos += c.len_utf8();
                    continue;
                }
            };
            self.pos += 1;
            self.last_line = self.line;
            return Ok(Some((token, self.line)));
        }
        Ok(None)
    }

    fn peek(&mut self) -> Result<Option<Spanned<'a>>, NetlistError> {
        if self.peeked.is_none() {
            self.peeked = self.lex()?;
        }
        Ok(self.peeked)
    }

    fn next(&mut self) -> Result<Option<Spanned<'a>>, NetlistError> {
        match self.peeked.take() {
            Some(spanned) => Ok(Some(spanned)),
            None => self.lex(),
        }
    }

    /// Consumes the next token if it is `token`.
    fn eat(&mut self, token: Token<'a>) -> Result<bool, NetlistError> {
        let found = matches!(self.peek()?, Some((t, _)) if t == token);
        if found {
            self.peeked = None;
        }
        Ok(found)
    }

    /// The error for finding `found` (`None`: the end) where `what` belongs.
    fn unexpected(&self, found: Option<Spanned<'a>>, what: &str) -> NetlistError {
        match found {
            Some((token, line)) => NetlistError::parse(
                ParseErrorKind::UnexpectedToken,
                line,
                format!("expected {what}, found {token:?}"),
            ),
            None => NetlistError::parse(
                ParseErrorKind::UnexpectedEof,
                self.last_line,
                format!("expected {what}"),
            ),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<(&'a str, usize), NetlistError> {
        match self.next()? {
            Some((Token::Ident(s), line)) => Ok((s, line)),
            found => Err(self.unexpected(found, what)),
        }
    }

    fn expect(&mut self, token: Token<'a>, what: &str) -> Result<usize, NetlistError> {
        match self.next()? {
            Some((t, line)) if t == token => Ok(line),
            found => Err(self.unexpected(found, what)),
        }
    }

    /// Parses `name (, name)* ;` into `names` (cleared first), each name
    /// with its line.
    fn name_list(&mut self, names: &mut Vec<(&'a str, usize)>) -> Result<(), NetlistError> {
        names.clear();
        names.push(self.expect_ident("a name")?);
        while self.eat(Token::Comma)? {
            names.push(self.expect_ident("a name")?);
        }
        self.expect(Token::Semi, "`;`")?;
        Ok(())
    }
}

/// Parses a single `.mnl` module.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] with a 1-based line number on any
/// lexical or syntactic problem, duplicate declaration, or missing
/// `endmodule`.
///
/// # Examples
///
/// ```
/// let m = maestro_netlist::mnl::parse(
///     "module inv_pair;\n\
///      input a;\n\
///      output y;\n\
///      device u1 INV (A=a, Y=t);\n\
///      device u2 INV (A=t, Y=y);\n\
///      endmodule\n",
/// )?;
/// assert_eq!(m.device_count(), 2);
/// assert_eq!(m.net_count(), 3); // a, y, t (lazily declared)
/// # Ok::<(), maestro_netlist::NetlistError>(())
/// ```
pub fn parse(source: &str) -> Result<Module, NetlistError> {
    let modules = parse_design(source)?;
    match <[Module; 1]>::try_from(modules) {
        Ok([module]) => Ok(module),
        Err(modules) => Err(NetlistError::parse(
            ParseErrorKind::Malformed,
            1,
            format!(
                "expected exactly one module, found {} (use parse_design for multi-module files)",
                modules.len()
            ),
        )),
    }
}

/// Parses a multi-module `.mnl` design: a sequence of
/// `module … endmodule` blocks in one file — the "global module
/// descriptions … for the whole chip" of the paper's Figure 1 database.
/// This is [`modules`], collected.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on any syntax problem, or a
/// [`ParseErrorKind::DuplicateName`] error when two modules share a name.
///
/// # Examples
///
/// ```
/// let design = maestro_netlist::mnl::parse_design(
///     "module a;\ninput x;\ndevice u INV (A=x, Y=y);\nendmodule\n\
///      module b;\ninput x;\ndevice u BUF (A=x, Y=y);\nendmodule\n",
/// )?;
/// assert_eq!(design.len(), 2);
/// # Ok::<(), maestro_netlist::NetlistError>(())
/// ```
pub fn parse_design(source: &str) -> Result<Vec<Module>, NetlistError> {
    modules(source).collect()
}

/// Parses a multi-module `.mnl` design lazily: each `next` parses one
/// more module from the source, so a caller can estimate a chip's first
/// modules while the rest is still text.
///
/// The iterator yields exactly what [`parse_design`] returns, one item at
/// a time. Errors surface in source order: the modules before a bad one
/// come out first, then its error, then nothing. A second module of the
/// same name is an error at the line of its `module` keyword, and a
/// source without modules yields one error.
///
/// # Examples
///
/// ```
/// use maestro_netlist::mnl;
///
/// let mut design = mnl::modules("module a;\nendmodule\nmodule b;\nfrobnicate;\n");
/// assert_eq!(design.next().unwrap()?.name(), "a");
/// assert!(design.next().unwrap().is_err()); // line 4: unknown statement
/// assert!(design.next().is_none());
/// # Ok::<(), maestro_netlist::NetlistError>(())
/// ```
pub fn modules(source: &str) -> Modules<'_> {
    Modules {
        tokens: Tokens::new(source),
        names: HashSet::new(),
        done: false,
    }
}

/// The iterator [`modules`] returns.
pub struct Modules<'a> {
    tokens: Tokens<'a>,
    /// Names of the modules yielded so far: the duplicate-module rule.
    names: HashSet<&'a str>,
    /// Set at the end of the source and after an error.
    done: bool,
}

impl Iterator for Modules<'_> {
    type Item = Result<Module, NetlistError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let item = match self.tokens.peek() {
            Ok(None) if !self.names.is_empty() => {
                self.done = true;
                return None;
            }
            Ok(None) => Err(NetlistError::parse(
                ParseErrorKind::Malformed,
                1,
                "source contains no modules",
            )),
            Ok(Some(_)) => self.module(),
            Err(e) => Err(e),
        };
        self.done = item.is_err();
        Some(item)
    }
}

impl FusedIterator for Modules<'_> {}

impl<'a> Modules<'a> {
    fn module(&mut self) -> Result<Module, NetlistError> {
        let t = &mut self.tokens;
        let module_line = match t.next()? {
            Some((Token::Ident("module"), line)) => line,
            found => {
                return Err(NetlistError::parse(
                    ParseErrorKind::Malformed,
                    found.map_or(t.last_line, |(_, line)| line),
                    "netlist must start with `module <name>;`",
                ));
            }
        };
        let (module_name, _) = t.expect_ident("module name")?;
        t.expect(Token::Semi, "`;`")?;

        let mut b = ModuleBuilder::new(module_name);
        let mut declared_ports: HashSet<&str> = HashSet::new();
        let mut declared_devices: HashSet<&str> = HashSet::new();
        // Per-statement scratch, reused across the module's statements.
        let mut names: Vec<(&str, usize)> = Vec::new();
        let mut bindings: Vec<(&str, &str)> = Vec::new();
        let mut pins: Vec<(&str, NetId)> = Vec::new();

        loop {
            let (kw, line) = t.expect_ident("a statement keyword")?;
            match kw {
                "endmodule" => break,
                "input" | "output" | "inout" => {
                    let dir = match kw {
                        "input" => PortDirection::Input,
                        "output" => PortDirection::Output,
                        _ => PortDirection::InOut,
                    };
                    t.name_list(&mut names)?;
                    for &(name, line) in &names {
                        if !declared_ports.insert(name) {
                            return Err(NetlistError::parse(
                                ParseErrorKind::DuplicateName,
                                line,
                                format!("port `{name}` declared twice"),
                            ));
                        }
                        b.port(name, dir);
                    }
                }
                "net" => {
                    t.name_list(&mut names)?;
                    for &(name, _) in &names {
                        b.net(name);
                    }
                }
                "device" => {
                    let (inst, line) = t.expect_ident("device instance name")?;
                    if !declared_devices.insert(inst) {
                        return Err(NetlistError::parse(
                            ParseErrorKind::DuplicateName,
                            line,
                            format!("device `{inst}` declared twice"),
                        ));
                    }
                    let (template, _) = t.expect_ident("device template name")?;
                    t.expect(Token::LParen, "`(`")?;
                    bindings.clear();
                    if !matches!(t.peek()?, Some((Token::RParen, _))) {
                        loop {
                            let (pin, line) = t.expect_ident("pin name")?;
                            t.expect(Token::Equals, "`=`")?;
                            let (net, _) = t.expect_ident("net name")?;
                            if bindings.iter().any(|&(bound, _)| bound == pin) {
                                return Err(NetlistError::parse(
                                    ParseErrorKind::DuplicateName,
                                    line,
                                    format!("pin `{pin}` bound twice on `{inst}`"),
                                ));
                            }
                            bindings.push((pin, net));
                            if !t.eat(Token::Comma)? {
                                break;
                            }
                        }
                    }
                    t.expect(Token::RParen, "`)`")?;
                    t.expect(Token::Semi, "`;`")?;
                    pins.clear();
                    pins.extend(bindings.iter().map(|&(pin, net)| (pin, b.net(net))));
                    b.device(inst, template, pins.iter().copied());
                }
                other => {
                    return Err(NetlistError::parse(
                        ParseErrorKind::UnexpectedToken,
                        line,
                        format!("unknown statement `{other}`"),
                    ));
                }
            }
        }
        if !self.names.insert(module_name) {
            return Err(NetlistError::parse(
                ParseErrorKind::DuplicateName,
                module_line,
                format!("module `{module_name}` defined twice"),
            ));
        }
        Ok(b.finish())
    }
}

/// Serializes a module back to `.mnl` text.
///
/// The output parses back to a structurally identical module (same device,
/// net and port order), which the round-trip tests rely on.
pub fn to_mnl(module: &Module) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "module {};", module.name());
    for dir in [
        PortDirection::Input,
        PortDirection::Output,
        PortDirection::InOut,
    ] {
        let names: Vec<&str> = module
            .ports()
            .filter(|(_, p)| p.direction() == dir)
            .map(|(_, p)| p.name())
            .collect();
        if !names.is_empty() {
            let kw = match dir {
                PortDirection::Input => "input",
                PortDirection::Output => "output",
                PortDirection::InOut => "inout",
            };
            let _ = writeln!(s, "{kw} {};", names.join(", "));
        }
    }
    let internal: Vec<&str> = module
        .nets()
        .filter(|(_, n)| !n.is_external())
        .map(|(_, n)| n.name())
        .collect();
    if !internal.is_empty() {
        let _ = writeln!(s, "net {};", internal.join(", "));
    }
    for (_, d) in module.devices() {
        let pins: Vec<String> = d
            .pins()
            .iter()
            .map(|(pin, net)| format!("{pin}={}", module.net(*net).name()))
            .collect();
        let _ = writeln!(
            s,
            "device {} {} ({});",
            d.name(),
            d.template(),
            pins.join(", ")
        );
    }
    s.push_str("endmodule\n");
    s
}

/// Splits a multi-module design source into per-module text chunks
/// *without* parsing — the cheap first half of an incremental re-parse.
///
/// Each chunk runs from its `module …` line through its `endmodule` line
/// inclusive; blank lines and `#` comments between modules belong to no
/// chunk (they carry no semantics, so a caller hashing chunks for a parse
/// memo stays insensitive to them). The split is deliberately
/// conservative: it only recognizes the canonical one-declaration-per-line
/// shape [`to_mnl`] emits, and returns `None` for anything else — content
/// outside a block, an unterminated block, an empty source — so callers
/// fall back to [`parse_design`], which reports the canonical error.
///
/// A chunk is *not* guaranteed to be a valid module, only to cover the
/// same text [`parse_design`] would consume for it: parse each chunk (or
/// serve it from a memo) and fall back to the whole source on failure.
///
/// # Examples
///
/// ```
/// let source = "# two blocks\nmodule a;\ninput x;\nendmodule\n\nmodule b;\ninput y;\nendmodule\n";
/// let chunks = maestro_netlist::mnl::split_design(source).expect("canonical shape");
/// assert_eq!(chunks.len(), 2);
/// assert!(chunks[0].starts_with("module a;"));
/// assert!(chunks[1].ends_with("endmodule\n"));
/// ```
pub fn split_design(source: &str) -> Option<Vec<&str>> {
    let mut chunks = Vec::new();
    let mut start: Option<usize> = None;
    let mut offset = 0;
    for line in source.split_inclusive('\n') {
        let trimmed = line.trim();
        match start {
            None => {
                if trimmed.starts_with("module ") || trimmed.starts_with("module\t") {
                    start = Some(offset);
                } else if !trimmed.is_empty() && !trimmed.starts_with('#') {
                    return None;
                }
            }
            Some(s) => {
                if trimmed == "endmodule" {
                    chunks.push(&source[s..offset + line.len()]);
                    start = None;
                }
            }
        }
        offset += line.len();
    }
    if start.is_some() || chunks.is_empty() {
        return None;
    }
    Some(chunks)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL_ADDER: &str = "\
# a full adder on standard cells
module full_adder;
input a, b, cin;
output sum, cout;
net t1, t2, t3;
device x1 XOR2 (A=a, B=b, Y=t1);
device x2 XOR2 (A=t1, B=cin, Y=sum);
device a1 AND2 (A=a, B=b, Y=t2);
device a2 AND2 (A=t1, B=cin, Y=t3);
device o1 OR2 (A=t2, B=t3, Y=cout);
endmodule
";

    #[test]
    fn parses_full_adder() {
        let m = parse(FULL_ADDER).expect("parses");
        assert_eq!(m.name(), "full_adder");
        assert_eq!(m.device_count(), 5);
        assert_eq!(m.port_count(), 5);
        assert_eq!(m.net_count(), 8); // 5 port nets + t1, t2, t3
        let t1 = m.find_net("t1").expect("t1 exists");
        assert_eq!(m.net(t1).component_count(), 3);
    }

    #[test]
    fn lazily_declared_nets_work() {
        let m = parse(
            "module m;\ninput a;\noutput y;\ndevice u INV (A=a, Y=y);\n\
             device v INV (A=y, Y=hidden);\nendmodule\n",
        )
        .expect("parses");
        assert!(m.find_net("hidden").is_some());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let m = parse("module m; # trailing comment\n\n# full line\nendmodule").expect("parses");
        assert_eq!(m.device_count(), 0);
    }

    #[test]
    fn device_with_no_pins_parses() {
        let m = parse("module m;\ndevice u INV ();\nendmodule").expect("parses");
        assert_eq!(m.device(m.find_device("u").unwrap()).pins().len(), 0);
    }

    #[test]
    fn error_unknown_statement_carries_line() {
        let err = parse("module m;\nfrobnicate x;\nendmodule").unwrap_err();
        match err {
            NetlistError::Parse { kind, line, .. } => {
                assert_eq!(kind, ParseErrorKind::UnexpectedToken);
                assert_eq!(line, 2);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn error_duplicate_port() {
        let err = parse("module m;\ninput a;\ninput a;\nendmodule").unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse {
                kind: ParseErrorKind::DuplicateName,
                line: 3,
                ..
            }
        ));
    }

    #[test]
    fn error_duplicate_device() {
        let err = parse("module m;\ndevice u INV ();\ndevice u INV ();\nendmodule").unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse {
                kind: ParseErrorKind::DuplicateName,
                ..
            }
        ));
    }

    #[test]
    fn error_missing_endmodule() {
        let err = parse("module m;\ninput a;\n").unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse {
                kind: ParseErrorKind::UnexpectedEof,
                ..
            }
        ));
    }

    #[test]
    fn error_bad_character() {
        let err = parse("module m;\ninput a$;\nendmodule").unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse {
                kind: ParseErrorKind::UnexpectedToken,
                line: 2,
                ..
            }
        ));
    }

    #[test]
    fn error_not_starting_with_module() {
        let err = parse("input a;\n").unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse {
                kind: ParseErrorKind::Malformed,
                ..
            }
        ));
    }

    #[test]
    fn round_trip_preserves_structure() {
        let m = parse(FULL_ADDER).expect("parses");
        let text = to_mnl(&m);
        let m2 = parse(&text).expect("round-trip parses");
        assert_eq!(m, m2);
    }

    #[test]
    fn design_with_multiple_modules_parses() {
        let src = format!("{FULL_ADDER}\nmodule buf1;\ninput a;\noutput y;\ndevice u BUF (A=a, Y=y);\nendmodule\n");
        let design = parse_design(&src).expect("parses");
        assert_eq!(design.len(), 2);
        assert_eq!(design[0].name(), "full_adder");
        assert_eq!(design[1].name(), "buf1");
    }

    #[test]
    fn single_module_parse_rejects_designs() {
        let src = "module a;\nendmodule\nmodule b;\nendmodule\n";
        let err = parse(src).unwrap_err();
        assert!(err.to_string().contains("parse_design"), "{err}");
        assert_eq!(parse_design(src).unwrap().len(), 2);
    }

    #[test]
    fn duplicate_module_names_rejected() {
        let src = "module a;\nendmodule\nmodule a;\nendmodule\n";
        let err = parse_design(src).unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse {
                kind: ParseErrorKind::DuplicateName,
                ..
            }
        ));
    }

    #[test]
    fn duplicate_module_reports_the_line_of_its_module_keyword() {
        // Ten lines; `a` comes back at line 4 and the file runs on past it.
        let src = "module a;\ninput x;\nendmodule\nmodule a;\ninput y;\nendmodule\n\
                   module b;\ninput z;\ndevice u INV (A=z, Y=w);\nendmodule\n";
        assert_eq!(src.lines().count(), 10);
        let err = parse_design(src).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 4: duplicate name: module `a` defined twice"
        );
    }

    #[test]
    fn the_first_error_in_the_source_wins() {
        // A syntax error at line 2 and a stray character at line 5: the
        // parser stops at the first.
        let src =
            "module m;\nfrobnicate x;\ninput a;\noutput y;\ndevice u INV (A=a$, Y=y);\nendmodule\n";
        let err = parse(src).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 2: unexpected token: unknown statement `frobnicate`"
        );
    }

    #[test]
    fn modules_yields_a_valid_module_before_a_later_error() {
        let src = "module a;\ninput x;\ndevice u INV (A=x, Y=y);\nendmodule\n\
                   module b;\ninput x;\ndevice u INV (A=x, Y=y)\nendmodule\n";
        let mut design = modules(src);
        let first = design.next().expect("an item").expect("module `a` parses");
        assert_eq!(first.name(), "a");
        assert_eq!(first.device_count(), 1);
        let err = design.next().expect("an item").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 8: unexpected token: expected `;`, found Ident(\"endmodule\")"
        );
        assert!(design.next().is_none(), "nothing after an error");
        assert_eq!(parse_design(src).unwrap_err(), err);
    }

    #[test]
    fn modules_of_a_generated_chip_match_the_generator_one_by_one() {
        // Some generators create internal nets before output ports, which
        // `.mnl` text cannot express, so a module is compared through its
        // canonical text and against the one-module parse of that text.
        let spec = crate::chip::ChipSpec::parse("mixed:20k").expect("valid spec");
        let text: String = spec.modules().map(|m| to_mnl(&m)).collect();
        let mut parsed = modules(&text);
        let mut count = 0;
        for expected in spec.modules() {
            let chunk = to_mnl(&expected);
            let got = parsed
                .next()
                .expect("as many modules as generated")
                .expect("generated text parses");
            assert_eq!(to_mnl(&got), chunk, "module `{}`", expected.name());
            assert_eq!(got, parse(&chunk).expect("one module parses"));
            count += 1;
        }
        assert!(
            parsed.next().is_none(),
            "no module beyond the generated ones"
        );
        assert_eq!(count, spec.module_count());
        assert!(count > 1, "a multi-module chip");
    }

    #[test]
    fn single_error_diagnostics_are_unchanged() {
        use ParseErrorKind::*;
        let cases: [(&str, ParseErrorKind, usize, &str); 11] = [
            (
                "module m;\nfrobnicate x;\nendmodule",
                UnexpectedToken,
                2,
                "unknown statement `frobnicate`",
            ),
            (
                "module m;\ninput a$;\nendmodule",
                UnexpectedToken,
                2,
                "unexpected character `$`",
            ),
            (
                "module m;\ninput \u{e9};\nendmodule",
                UnexpectedToken,
                2,
                "unexpected character `\u{e9}`",
            ),
            (
                "module m;\ndevice u INV (A=x)\nendmodule",
                UnexpectedToken,
                3,
                "expected `;`, found Ident(\"endmodule\")",
            ),
            (
                "module m;\ninput a;\ninput a;\nendmodule",
                DuplicateName,
                3,
                "port `a` declared twice",
            ),
            (
                "module m;\ndevice u INV ();\ndevice u INV ();\nendmodule",
                DuplicateName,
                3,
                "device `u` declared twice",
            ),
            (
                "module m;\ndevice u INV (A=x,\n A=y);\nendmodule",
                DuplicateName,
                3,
                "pin `A` bound twice on `u`",
            ),
            (
                "module m;\ninput a;\n",
                UnexpectedEof,
                2,
                "expected a statement keyword",
            ),
            (
                "input a;\n",
                Malformed,
                1,
                "netlist must start with `module <name>;`",
            ),
            (
                "# nothing here\n",
                Malformed,
                1,
                "source contains no modules",
            ),
            (
                "module a;\nendmodule\nmodule b;\nendmodule\n",
                Malformed,
                1,
                "expected exactly one module, found 2 (use parse_design for multi-module files)",
            ),
        ];
        for (src, kind, line, message) in cases {
            let err = parse(src).unwrap_err();
            assert_eq!(
                err,
                NetlistError::parse(kind, line, message),
                "diagnostic for {src:?}"
            );
        }
    }

    #[test]
    fn empty_design_rejected() {
        let err = parse_design("# nothing here\n").unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse {
                kind: ParseErrorKind::Malformed,
                ..
            }
        ));
    }

    #[test]
    fn duplicate_pin_binding_rejected() {
        let err = parse("module m;\ndevice u INV (A=x, A=y);\nendmodule").unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse {
                kind: ParseErrorKind::DuplicateName,
                ..
            }
        ));
    }

    #[test]
    fn split_design_covers_every_block_and_reparses_identically() {
        let source = "# header comment\n\nmodule a;\ninput x;\ndevice u INV (A=x, Y=y);\nendmodule\n\n# between\nmodule b;\ninput x;\ndevice u BUF (A=x, Y=y);\nendmodule\n";
        let chunks = split_design(source).expect("canonical shape splits");
        assert_eq!(chunks.len(), 2);
        let whole = parse_design(source).expect("whole source parses");
        for (chunk, reference) in chunks.iter().zip(&whole) {
            let one = parse(chunk).expect("chunk parses alone");
            assert_eq!(one.name(), reference.name());
            assert_eq!(to_mnl(&one), to_mnl(reference));
        }
    }

    #[test]
    fn split_design_rejects_non_canonical_shapes() {
        // Content outside a block.
        assert!(split_design("stray\nmodule a;\nendmodule\n").is_none());
        // Unterminated block.
        assert!(split_design("module a;\ninput x;\n").is_none());
        // Trailing junk after the last block.
        assert!(split_design("module a;\nendmodule\njunk\n").is_none());
        // Empty source.
        assert!(split_design("").is_none());
        assert!(split_design("# only comments\n").is_none());
    }

    #[test]
    fn split_design_handles_a_missing_final_newline() {
        let chunks = split_design("module a;\ninput x;\nendmodule").expect("splits");
        assert_eq!(chunks.len(), 1);
        assert!(parse(chunks[0]).is_ok());
    }
}
