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

use maestro_trace as trace;

use crate::{Module, ModuleBuilder, NetlistError, ParseErrorKind, PortDirection};

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
        Tokens::at(source, 1)
    }

    /// Lexes `source` as text that starts on line `line` of a larger
    /// source.
    fn at(source: &'a str, line: usize) -> Self {
        Tokens {
            source,
            pos: 0,
            line,
            last_line: line,
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
/// modules while the rest is still text. This is [`chunks`], each chunk
/// parsed in turn.
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
        chunks: chunks(source),
        failed: false,
    }
}

/// The iterator [`modules`] returns.
pub struct Modules<'a> {
    chunks: Chunks<'a>,
    /// Set after an error: nothing follows it.
    failed: bool,
}

impl Iterator for Modules<'_> {
    type Item = Result<Module, NetlistError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let item = self.chunks.next()?.parse();
        self.failed = item.is_err();
        Some(item)
    }
}

impl FusedIterator for Modules<'_> {}

/// Cuts a multi-module `.mnl` design into one [`Chunk`] per module
/// without parsing it, so the modules can be parsed anywhere, in any
/// order, on any thread.
///
/// A cut falls just after an `endmodule` whose previous token is `;`:
/// the only place the parser reads a statement keyword, so an `endmodule`
/// used as a module, device, net or pin name, or inside a `#` comment,
/// never cuts. Parsing the chunks in order — [`modules`] — gives exactly
/// what one parser walking the whole source gives: the same modules, and
/// the same first error with the same line. Whitespace and comments
/// before a module belong to its chunk; after the last module they end
/// the design, and anything else there becomes a last chunk that fails
/// to parse. A source with no cut at all is one chunk.
///
/// The scan looks for the word `endmodule` and examines only the lines
/// around each occurrence, so it costs a small fraction of parsing.
///
/// # Examples
///
/// ```
/// use maestro_netlist::mnl;
///
/// let source = "module a;\ndevice endmodule INV ();\nendmodule\nmodule b;\nendmodule\n";
/// let chunks: Vec<mnl::Chunk> = mnl::chunks(source).collect();
/// assert_eq!(chunks.len(), 2);
/// assert_eq!(chunks[1].parse()?.name(), "b");
/// assert_eq!(chunks[0].parse()?.device_count(), 1);
/// # Ok::<(), maestro_netlist::NetlistError>(())
/// ```
pub fn chunks(source: &str) -> Chunks<'_> {
    Chunks {
        source,
        start: 0,
        line: 1,
        names: HashSet::new(),
        done: false,
    }
}

/// One module's slice of a design source, cut by [`chunks`]: its text,
/// the line the text starts on, and whether an earlier chunk declared
/// the same module name.
#[derive(Debug, Clone, Copy)]
pub struct Chunk<'a> {
    text: &'a str,
    line: usize,
    repeat: bool,
}

impl<'a> Chunk<'a> {
    /// What the chunk's module is parsed from: its text from the first
    /// token on. The whitespace and `#` comments before a module only
    /// move its lines, so two chunks with the same content parse to the
    /// same module, and a parse memo can key on it. `None` for a chunk
    /// that repeats an earlier module's name: whatever its content, its
    /// parse is the duplicate-module error.
    pub fn content(&self) -> Option<&'a str> {
        if self.repeat {
            return None;
        }
        let mut t = Tokens::new(self.text);
        let start = match t.lex() {
            Ok(Some((Token::Ident(word), _))) => t.pos - word.len(),
            Ok(Some(_)) => t.pos - 1,
            // The end of the text, or the stray character the parse
            // fails on.
            Ok(None) | Err(_) => t.pos,
        };
        Some(&self.text[start..])
    }

    /// Parses the chunk into the module — or the error — that [`modules`]
    /// yields for it. Errors carry lines of the whole source. A module
    /// whose name an earlier chunk declared is a
    /// [`ParseErrorKind::DuplicateName`] error, raised only once its own
    /// body has parsed. Opens a `netlist.parse` span on the calling
    /// thread.
    ///
    /// # Errors
    ///
    /// As [`parse_design`], for this module.
    pub fn parse(&self) -> Result<Module, NetlistError> {
        let _span = trace::span("netlist.parse");
        let mut t = Tokens::at(self.text, self.line);
        if t.peek()?.is_none() {
            return Err(no_modules());
        }
        let (module, module_line) = parse_module(&mut t)?;
        if self.repeat {
            return Err(NetlistError::parse(
                ParseErrorKind::DuplicateName,
                module_line,
                format!("module `{}` defined twice", module.name()),
            ));
        }
        Ok(module)
    }

    /// The chunk's statement count (its `;` characters): a cheap proxy
    /// for its devices, and so for its parse and estimation cost.
    pub fn statements(&self) -> usize {
        count_byte(self.text, b';')
    }
}

/// The iterator [`chunks`] returns.
pub struct Chunks<'a> {
    source: &'a str,
    /// Byte offset of the next chunk: just past the last cut.
    start: usize,
    /// Line of `start`.
    line: usize,
    /// Module names the chunks so far declare: the duplicate-module rule.
    names: HashSet<&'a str>,
    /// Set once the source is used up.
    done: bool,
}

impl<'a> Iterator for Chunks<'a> {
    type Item = Chunk<'a>;

    fn next(&mut self) -> Option<Chunk<'a>> {
        if self.done {
            return None;
        }
        let end = match self.cut() {
            Some(end) => end,
            None => {
                self.done = true;
                // Whitespace and comments after the last module end the
                // design. Anything else, or a source without a single
                // module, is a chunk that fails to parse.
                let rest = Tokens::new(&self.source[self.start..]).lex();
                if self.start > 0 && matches!(rest, Ok(None)) {
                    return None;
                }
                self.source.len()
            }
        };
        let text = &self.source[self.start..end];
        let chunk = Chunk {
            text,
            line: self.line,
            repeat: header_name(text).is_some_and(|name| !self.names.insert(name)),
        };
        self.start = end;
        self.line += count_byte(text, b'\n');
        Some(chunk)
    }
}

impl FusedIterator for Chunks<'_> {}

impl Chunks<'_> {
    /// The end of the next module: just past the first `endmodule` at or
    /// after `start` that the parser would read as a statement keyword —
    /// a whole word outside a `#` comment whose previous token is `;`.
    /// `None` when no such word is left. Every byte is examined a bounded
    /// number of times, however the words and comments are laid out.
    fn cut(&self) -> Option<usize> {
        const END: &str = "endmodule";
        let (source, bytes) = (self.source, self.source.as_bytes());
        // `pos` sits at a line start or in code, never inside a comment;
        // `last` is the last significant character of `start..pos`. At
        // `start` the previous token is an `endmodule` or nothing.
        let (mut pos, mut last) = (self.start, None);
        loop {
            let at = pos + source[pos..].find(END)?;
            let line = source[pos..at].rfind('\n').map_or(pos, |n| pos + n + 1);
            last = last_significant(&source[pos..line]).or(last);
            let code = &source[line..at];
            if let Some(hash) = code.find('#') {
                // Inside a comment: skip to the end of its line.
                last = last_significant(&code[..hash]).or(last);
                pos = source[at..].find('\n').map_or(source.len(), |n| at + n);
                continue;
            }
            last = last_significant(code).or(last);
            let end = at + END.len();
            let in_longer_word = (at > 0 && is_ident_byte(bytes[at - 1]))
                || bytes.get(end).copied().is_some_and(is_ident_byte);
            if !in_longer_word && last == Some(';') {
                return Some(end);
            }
            (pos, last) = (end, Some('e'));
        }
    }
}

/// How many times `byte` occurs in `text`. Each block of 255 bytes is
/// counted into a `u8`, a loop the compiler vectorizes: about ten times
/// the speed of a filtered count on a multi-megabyte design.
fn count_byte(text: &str, byte: u8) -> usize {
    text.as_bytes()
        .chunks(255)
        .map(|block| usize::from(block.iter().fold(0u8, |n, &b| n + u8::from(b == byte))))
        .sum()
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The last character of `text` that is neither whitespace nor inside a
/// `#` comment; `text` starts at a line start or in code.
fn last_significant(text: &str) -> Option<char> {
    text.rsplit('\n').find_map(|line| {
        let code = line.find('#').map_or(line, |hash| &line[..hash]);
        code.trim_end().chars().next_back()
    })
}

/// The name a chunk's `module NAME` header declares, if it has one.
fn header_name(text: &str) -> Option<&str> {
    let mut t = Tokens::new(text);
    match (t.lex(), t.lex()) {
        (Ok(Some((Token::Ident("module"), _))), Ok(Some((Token::Ident(name), _)))) => Some(name),
        _ => None,
    }
}

/// The error for a source that declares no module.
fn no_modules() -> NetlistError {
    NetlistError::parse(ParseErrorKind::Malformed, 1, "source contains no modules")
}

/// Parses one `module NAME; … endmodule` block from the next token on.
/// Returns the module and the line of its `module` keyword.
fn parse_module(t: &mut Tokens<'_>) -> Result<(Module, usize), NetlistError> {
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

    // The builder's name indexes are the duplicate checks: each step
    // runs as its statement is read, so the first error in the source
    // wins.
    let mut b = ModuleBuilder::new(module_name);
    // Per-statement scratch, reused across the module's statements.
    let mut names: Vec<(&str, usize)> = Vec::new();

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
                    b.add_port(name, dir)
                        .map_err(|r| r.at(line, || format!("port `{name}` declared twice")))?;
                }
            }
            "net" => {
                t.name_list(&mut names)?;
                for &(name, line) in &names {
                    b.add_net(name).map_err(|r| r.at(line, String::new))?;
                }
            }
            "device" => {
                let (inst, line) = t.expect_ident("device instance name")?;
                b.add_device(inst)
                    .map_err(|r| r.at(line, || format!("device `{inst}` declared twice")))?;
                let (template, line) = t.expect_ident("device template name")?;
                b.set_template(template)
                    .map_err(|r| r.at(line, String::new))?;
                t.expect(Token::LParen, "`(`")?;
                if !matches!(t.peek()?, Some((Token::RParen, _))) {
                    loop {
                        let (pin, line) = t.expect_ident("pin name")?;
                        t.expect(Token::Equals, "`=`")?;
                        let (net, _) = t.expect_ident("net name")?;
                        let net = b.add_net(net).map_err(|r| r.at(line, String::new))?;
                        b.bind(pin, net).map_err(|r| {
                            r.at(line, || format!("pin `{pin}` bound twice on `{inst}`"))
                        })?;
                        if !t.eat(Token::Comma)? {
                            break;
                        }
                    }
                }
                t.expect(Token::RParen, "`)`")?;
                t.expect(Token::Semi, "`;`")?;
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
    Ok((b.finish(), module_line))
}

/// Serializes a module back to `.mnl` text.
///
/// The text lists the ports grouped by direction (inputs, outputs, then
/// inouts), then the internal nets, then the devices. Parsing it back
/// keeps the device order and every binding, and the port order within
/// each direction, and the parsed module prints the same text again. It
/// is not always `==` to the original: ports of different directions
/// that interleave, or a net created before a port, come back in the
/// text's order, with other port and net ids.
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
/// *without* parsing, by lines. The product cuts with [`chunks`]. This
/// independent cutter is kept for the benchmark (`perfbench/`), whose
/// reference output for a streamed chip is parsed from these cuts and so
/// also checks the CLI's cutter; it goes once the benchmark moves to
/// [`chunks`].
///
/// Each chunk runs from its `module …` line through its `endmodule` line
/// inclusive; blank lines and `#` comments between modules belong to no
/// chunk. The split is deliberately conservative: it only recognizes the
/// canonical one-declaration-per-line shape [`to_mnl`] emits, and returns
/// `None` for anything else — content outside a block, an unterminated
/// block, an empty source.
///
/// A chunk is *not* guaranteed to be a valid module, only to cover the
/// same text [`parse_design`] would consume for it.
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

    /// The sequential reference for [`modules`]: one lexer walks the
    /// whole source and parses each module where the previous one ended,
    /// with no chunking. Collected up to and including the first error.
    fn reference_modules(source: &str) -> Vec<Result<Module, NetlistError>> {
        let mut t = Tokens::new(source);
        let mut names: HashSet<String> = HashSet::new();
        let mut out = Vec::new();
        loop {
            let item = match t.peek() {
                Ok(None) if !names.is_empty() => break,
                Ok(None) => Err(no_modules()),
                Ok(Some(_)) => parse_module(&mut t).and_then(|(module, line)| {
                    if names.insert(module.name().to_owned()) {
                        Ok(module)
                    } else {
                        Err(NetlistError::parse(
                            ParseErrorKind::DuplicateName,
                            line,
                            format!("module `{}` defined twice", module.name()),
                        ))
                    }
                }),
                Err(e) => Err(e),
            };
            let failed = item.is_err();
            out.push(item);
            if failed {
                return out;
            }
        }
        out
    }

    /// Module, device, net and pin names that spell the block keywords,
    /// and `endmodule` in comments.
    const SHADOWED: &str = "\
# a design whose names shadow the block keywords
module alu;
input a, endmodule;
output y;
net module, t; # endmodule in a comment
device endmodule INV (A=a, Y=t);
device u2 NAND2 (endmodule=t, module=endmodule, Y=y);
endmodule
module endmodule;
input a;
output y;
device module INV (A=a, Y=y);
endmodule

module module; # endmodule
inout io;
device u1 BUF (A=io, Y=endmodule);
endmodule
";

    #[test]
    fn chunks_cut_only_after_a_statement_endmodule() {
        let chunks: Vec<Chunk> = chunks(SHADOWED).collect();
        let names: Vec<String> = chunks
            .iter()
            .map(|c| c.parse().expect("chunk parses").name().to_owned())
            .collect();
        assert_eq!(names, ["alu", "endmodule", "module"]);
        // A chunk starts just past the previous `endmodule`, on its line.
        assert_eq!(
            chunks.iter().map(|c| c.line).collect::<Vec<_>>(),
            [1, 8, 13]
        );
        assert!(chunks.iter().all(|c| c.text.ends_with("endmodule")));
        let alu = chunks[0].parse().unwrap();
        assert_eq!((alu.device_count(), alu.port_count()), (2, 3));
    }

    #[test]
    fn chunks_report_blank_and_junk_tails_like_the_reference() {
        for source in [
            "",
            "  \n# only a comment\n",
            "module a;\nendmodule\n  # tail comment\n\n",
            "module a;\nendmodule\njunk\n",
            "module a;\nendmodule\n$",
            "module a;\nendmodule;\n",
            "module a;\nendmodule\nmodule a;\ninput x;\nendmodule",
            "module a;\nendmodule\nmodule a;\ninput x,;\nendmodule",
            "module a; device u INV (); endmodule module b; endmodule",
        ] {
            let chunked: Vec<_> = modules(source).collect();
            assert_eq!(chunked, reference_modules(source), "source {source:?}");
        }
    }

    #[test]
    fn chunk_content_skips_leading_comments_and_repeated_modules() {
        let source = "# header\n  \nmodule a; endmodule # after a\n\
                      # between\n\u{3000}\tmodule b;\ninput x;\nendmodule\n\
                      module a;\nendmodule\n# tail\n$stray";
        let chunks: Vec<Chunk> = chunks(source).collect();
        let contents: Vec<Option<&str>> = chunks.iter().map(Chunk::content).collect();
        assert_eq!(
            contents,
            [
                Some("module a; endmodule"),
                Some("module b;\ninput x;\nendmodule"),
                None,
                Some("$stray"),
            ]
        );
        // The content alone parses to the chunk's module.
        let b = chunks[1].parse().expect("b parses");
        assert_eq!(parse("module b;\ninput x;\nendmodule").unwrap(), b);
        for blank in ["", "  \n# only a comment\n"] {
            let only: Vec<Chunk> = super::chunks(blank).collect();
            assert_eq!(only.len(), 1);
            assert_eq!(only[0].content(), Some(""), "source {blank:?}");
        }
    }

    /// A source as tokens and the whitespace and comments between them.
    fn pieces(source: &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut chars = source.chars().peekable();
        while let Some(c) = chars.next() {
            let mut piece = c.to_string();
            let joins = |next: char| match c {
                '#' => next != '\n',
                c if c.is_ascii_alphanumeric() || c == '_' => {
                    next.is_ascii_alphanumeric() || next == '_'
                }
                _ => false,
            };
            while let Some(&next) = chars.peek() {
                if !joins(next) {
                    break;
                }
                piece.push(next);
                chars.next();
            }
            out.push(piece);
        }
        out
    }

    /// What a mutation may insert: keywords as names, punctuation,
    /// comments holding `endmodule`, Unicode whitespace, strays.
    const INSERTS: [&str; 30] = [
        "module",
        "endmodule",
        "input",
        "net",
        "device",
        "x",
        "INV",
        ";",
        ",",
        "(",
        ")",
        "=",
        " ",
        "\n",
        "\t",
        "\r\n",
        "# endmodule",
        "# ;\n",
        "#",
        "\u{3000}",
        "\u{a0}",
        "\u{2028}",
        "\u{85}",
        "$",
        "\u{e9}",
        "9",
        "endmodule_2",
        "xendmodule",
        ";endmodule",
        "\n# endmodule\nendmodule\n",
    ];

    /// Base design `base` (of three) with token-level `edits` applied:
    /// `(op, at, insert)` inserts, deletes, duplicates or replaces the
    /// piece at `at`.
    fn mutated(base: usize, edits: Vec<(u8, usize, usize)>) -> String {
        let adder_twice = format!("{FULL_ADDER}\n{FULL_ADDER}");
        let generated: String = [3, 4, 5]
            .into_iter()
            .map(|n| to_mnl(&crate::generate::counter(n)))
            .collect();
        let bases = [SHADOWED, adder_twice.as_str(), generated.as_str()];
        let mut source = pieces(bases[base]);
        for (op, at, insert) in edits {
            let at = at % (source.len() + 1);
            match op {
                0 => source.insert(at, INSERTS[insert].to_owned()),
                _ if at == source.len() => source.push(INSERTS[insert].to_owned()),
                1 => drop(source.remove(at)),
                2 => source.insert(at, source[at].clone()),
                _ => source[at] = INSERTS[insert].to_owned(),
            }
        }
        source.concat()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(3000))]

        #[test]
        fn chunked_modules_match_the_one_lexer_reference(
            base in 0usize..3,
            edits in proptest::collection::vec((0u8..4, 0usize..4096, 0usize..INSERTS.len()), 0..5),
        ) {
            let source = mutated(base, edits);
            let chunked: Vec<_> = modules(&source).collect();
            proptest::prop_assert_eq!(chunked, reference_modules(&source), "source {:?}", source);
        }

        /// The parse memo's contract: a chunk with content parses to
        /// what its content alone parses to, wherever the chunk sits.
        #[test]
        fn a_chunk_parses_like_its_content_alone(
            base in 0usize..3,
            edits in proptest::collection::vec((0u8..4, 0usize..4096, 0usize..INSERTS.len()), 0..5),
        ) {
            let source = mutated(base, edits);
            for chunk in chunks(&source) {
                if let Some(content) = chunk.content() {
                    let alone = Chunk { text: content, line: 1, repeat: false };
                    proptest::prop_assert_eq!(
                        alone.parse().ok(),
                        chunk.parse().ok(),
                        "chunk {:?} of {:?}",
                        chunk.text,
                        source
                    );
                }
            }
        }
    }

    #[test]
    fn wide_devices_check_their_pins_in_linear_time() {
        // 10^5 pins on one device, one pin per line: a scan per pin would
        // take ~5×10^9 name comparisons in the parser and again in the
        // builder.
        const PINS: usize = 100_000;
        let mut source = String::from("module wide;\ndevice u BIG (\n");
        for i in 0..PINS {
            writeln!(source, "P{i}=n{},", i % 7).unwrap();
        }
        let good = format!("{}\n);\nendmodule\n", source.trim_end_matches(",\n"));
        let wide = parse(&good).expect("distinct pins parse");
        let (_, device) = wide.devices().next().expect("one device");
        assert_eq!(device.pins().len(), PINS);

        let names: Vec<String> = (0..PINS).map(|i| format!("P{i}")).collect();
        let build = |pins: &[String]| {
            let mut b = ModuleBuilder::new("wide");
            let n = b.net("n");
            b.device("u", "BIG", pins.iter().map(|p| (p.as_str(), n)));
            b.finish()
        };
        assert_eq!(build(&names).net_count(), 1);
        let mut repeated_names = names.clone();
        repeated_names.push("P0".to_owned());
        let panic = std::panic::catch_unwind(|| build(&repeated_names)).unwrap_err();
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some("device `u` binds pin `P0` twice")
        );

        // Repeat the first pin at the end, on line 2 + PINS + 1.
        let repeated = format!("{source}P0=n0);\nendmodule\n");
        assert_eq!(
            parse(&repeated).unwrap_err(),
            NetlistError::parse(
                ParseErrorKind::DuplicateName,
                PINS + 3,
                "pin `P0` bound twice on `u`"
            )
        );
    }
}
