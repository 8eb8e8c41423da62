//! Hand-rolled JSON encode/decode.
//!
//! The workspace builds fully offline (no serde), so this module provides
//! the small JSON subset the serving layer and the bench writers need: a
//! [`Value`] tree, one strict pull reader (`Reader`), and one streaming
//! writer (`JsonWriter`) behind the compact and pretty serializers and
//! behind the store's snapshots and journal lines. Objects preserve
//! insertion order, so serialization is deterministic — a property the
//! journal format and the restart tests rely on.
//!
//! The reader is the only tokenizer. Every record the server reads is
//! decoded in one pull pass over it, with no tree, straight into the
//! caller's types (the server's `record` module): both commit bodies and
//! the journal lines restart replay reads, the register and
//! fresh-testset bodies, `project.json`, the era blobs
//! `testset.<era>.json` and `snapshot.json`. The decoders borrow keys
//! and escape-free strings (a commit id, a packed vector) from the text.
//! [`Value::parse`] builds its tree by a recursion over the same reader;
//! it serves the HTTP client's response reader, the tests and the
//! benchmark, and no server route or boot path calls it. All of them
//! therefore share one lexer (whitespace, strings, numbers, literals and
//! the depth cap) and accept exactly the same documents.
//!
//! Packed vectors (`#` plus one [`encode_u32_vec`] character per item)
//! are decoded by one pass (`decode_packed_into`) that hands every byte
//! to its caller as it decodes it: the predictions route folds its
//! redelivery digest through that hook, so each vector's bytes are read
//! once on the way in.
//!
//! Numbers are stored as `f64` and rendered without a fractional part
//! when they are integral (`3`, not `3.0`), which keeps sample sizes and
//! step counters round-trippable: every integer with magnitude below
//! 2⁵³ survives encode → parse → encode byte-identically.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers render without a fractional part).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion-ordered. Duplicate keys are kept as parsed
    /// and [`Value::get`] returns the *first* match, so the first
    /// occurrence wins.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Build an object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>, I: IntoIterator<Item = (K, Value)>>(pairs: I) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array from values.
    pub fn array<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::Array(items.into_iter().collect())
    }

    /// Member of an object by key (first match), if this is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly (no fractional part, within `u64` range).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => exact_u64(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Compact serialization (no whitespace).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut w = JsonWriter::compact();
        self.write(&mut w);
        w.finish()
    }

    /// Pretty serialization with two-space indentation and a trailing
    /// newline — the house style of the `results/*.json` files.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut w = JsonWriter::pretty(0);
        self.write(&mut w);
        w.finish()
    }

    /// Stream this value through `w`.
    pub(crate) fn write(&self, w: &mut JsonWriter) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Number(n) => w.number(*n),
            Value::String(s) => w.string(s),
            Value::Array(items) => {
                w.begin_array();
                for item in items {
                    item.write(w);
                }
                w.end_array();
            }
            Value::Object(pairs) => {
                w.begin_object();
                for (key, value) in pairs {
                    w.key(key);
                    value.write(w);
                }
                w.end_object();
            }
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// A [`JsonError`] with the byte offset of the first violation.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut reader = Reader::new(text);
        let value = reader.value()?;
        reader.finish()?;
        Ok(value)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(n)
    }
}
impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Number(n as f64)
    }
}
impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::Number(f64::from(n))
    }
}
impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Number(n as f64)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.encode())
    }
}

/// A streaming JSON writer: objects, arrays, keys, numbers and strings
/// go straight into one buffer, compact or pretty (two-space indent,
/// `": "` after keys, a trailing newline). [`Value::encode`] and
/// [`Value::pretty`] are a recursion over it, and callers that own their
/// data (snapshots, `/history` bodies, journal lines) write through it
/// without building a [`Value`] tree, so the number, escape and indent
/// rules exist once.
///
/// Members and elements are separated automatically: a value written
/// right after [`JsonWriter::key`] follows the key, any other value
/// inside a container starts a new member. An opening bracket is the
/// last byte written exactly when its container is still empty (every
/// complete value ends in `"`, `]`, `}`, a digit or a letter), which is
/// all the state separators and empty containers need.
#[derive(Debug)]
pub(crate) struct JsonWriter {
    out: String,
    pretty: bool,
    depth: usize,
    after_key: bool,
}

impl JsonWriter {
    /// A compact writer (no whitespace).
    #[must_use]
    pub(crate) fn compact() -> JsonWriter {
        JsonWriter {
            out: String::new(),
            pretty: false,
            depth: 0,
            after_key: false,
        }
    }

    /// A compact writer with `capacity` bytes reserved.
    #[must_use]
    pub(crate) fn compact_with_capacity(capacity: usize) -> JsonWriter {
        JsonWriter {
            out: String::with_capacity(capacity),
            ..JsonWriter::compact()
        }
    }

    /// A pretty writer (the layout of [`Value::pretty`]) with `capacity`
    /// bytes reserved.
    #[must_use]
    pub(crate) fn pretty(capacity: usize) -> JsonWriter {
        JsonWriter {
            out: String::with_capacity(capacity),
            pretty: true,
            ..JsonWriter::compact()
        }
    }

    /// A compact document of one object whose members `members` writes.
    #[must_use]
    pub(crate) fn object(members: impl FnOnce(&mut JsonWriter)) -> String {
        let mut w = JsonWriter::compact();
        w.begin_object();
        members(&mut w);
        w.end_object();
        w.finish()
    }

    /// The finished document; pretty documents end in a newline.
    #[must_use]
    pub(crate) fn finish(mut self) -> String {
        debug_assert_eq!(self.depth, 0, "unclosed container");
        if self.pretty {
            self.out.push('\n');
        }
        self.out
    }

    /// The finished compact document with a newline after it: one line
    /// of a line-oriented log.
    #[must_use]
    pub(crate) fn finish_line(mut self) -> String {
        debug_assert!(!self.pretty, "log lines are compact");
        self.out.push('\n');
        self.finish()
    }

    /// Open an object.
    pub(crate) fn begin_object(&mut self) {
        self.open('{');
    }

    /// Close the innermost object.
    pub(crate) fn end_object(&mut self) {
        self.close(b'{', '}');
    }

    /// Open an array.
    pub(crate) fn begin_array(&mut self) {
        self.open('[');
    }

    /// Close the innermost array.
    pub(crate) fn end_array(&mut self) {
        self.close(b'[', ']');
    }

    /// Start an object member: the next value written is its value.
    pub(crate) fn key(&mut self, key: &str) -> &mut JsonWriter {
        self.member();
        write_escaped(&mut self.out, key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
        self
    }

    /// `null`.
    pub(crate) fn null(&mut self) {
        self.value();
        self.out.push_str("null");
    }

    /// `true` / `false`.
    pub(crate) fn bool(&mut self, b: bool) {
        self.value();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// A string, escaped.
    pub(crate) fn string(&mut self, s: &str) {
        self.value();
        write_escaped(&mut self.out, s);
    }

    /// A number. Integral values of magnitude at most 2⁵³ render as
    /// integers (`3`, not `3.0`; `-0.0` as `-0`), other finite values in
    /// Rust's shortest round-trip form, and NaN/±∞ — which JSON cannot
    /// carry — as `null` rather than an unparsable token.
    pub(crate) fn number(&mut self, n: f64) {
        self.value();
        if !n.is_finite() {
            self.out.push_str("null");
        } else if n.fract() == 0.0 && n.abs() <= EXACT_INT {
            // Exact: the value is an integer of at most 54 bits, and
            // integer formatting skips the float digit generation.
            if n.is_sign_negative() {
                self.out.push('-');
            }
            let _ = write!(self.out, "{}", n.abs() as u64);
        } else {
            let _ = write!(self.out, "{n}");
        }
    }

    /// An unsigned integer, rendered exactly as [`JsonWriter::number`]
    /// renders `n as f64`.
    pub(crate) fn u64(&mut self, n: u64) {
        if n <= 1 << 53 {
            self.value();
            let _ = write!(self.out, "{n}");
        } else {
            self.number(n as f64);
        }
    }

    fn open(&mut self, bracket: char) {
        self.value();
        self.out.push(bracket);
        self.depth += 1;
    }

    fn close(&mut self, open: u8, bracket: char) {
        debug_assert!(self.depth > 0 && !self.after_key, "unbalanced close");
        self.depth -= 1;
        if self.out.as_bytes().last() != Some(&open) {
            self.newline_indent();
        }
        self.out.push(bracket);
    }

    /// Separate a value from what came before it: nothing after a key,
    /// a new member or element inside a container.
    fn value(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.depth > 0 {
            self.member();
        }
    }

    fn member(&mut self) {
        if !matches!(self.out.as_bytes().last(), Some(b'{' | b'[')) {
            self.out.push(',');
        }
        self.newline_indent();
    }

    fn newline_indent(&mut self) {
        const SPACES: &str = "                                ";
        if self.pretty {
            self.out.push('\n');
            let mut width = 2 * self.depth;
            while width > 0 {
                let run = width.min(SPACES.len());
                self.out.push_str(&SPACES[..run]);
                width -= run;
            }
        }
    }
}

/// 2⁵³: every integer up to this magnitude is exact in an `f64`.
const EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// Per-byte JSON string escape: 0 for a byte copied verbatim, else the
/// letter after the backslash (`u` for the `\u00XX` form). Every byte
/// that needs escaping is ASCII, so runs of plain bytes always end on a
/// UTF-8 character boundary.
const ESCAPE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = b'u';
        b += 1;
    }
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table[b'\n' as usize] = b'n';
    table[b'\r' as usize] = b'r';
    table[b'\t' as usize] = b't';
    table[0x08] = b'b';
    table[0x0C] = b'f';
    table
};

/// Length of the leading run of `bytes` that JSON strings carry verbatim
/// (no quote, backslash or control byte), scanned eight bytes a word.
fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_le_bytes([0x80; 8]);
    // The high bit of each byte of `word` that is below `n`. A borrow
    // may also flag bytes past the first hit, never before it, so the
    // lowest flagged byte is the first special one.
    let below = |word: u64, n: u8| word.wrapping_sub(ONES * u64::from(n)) & !word & HIGH;
    let mut done = 0;
    for chunk in bytes.chunks_exact(8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let special = below(word, 0x20)
            | below(word ^ (ONES * u64::from(b'"')), 1)
            | below(word ^ (ONES * u64::from(b'\\')), 1);
        if special != 0 {
            return done + special.trailing_zeros() as usize / 8;
        }
        done += 8;
    }
    done + bytes[done..]
        .iter()
        .position(|&b| ESCAPE[usize::from(b)] != 0)
        .unwrap_or(bytes.len() - done)
}

fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.reserve(bytes.len() + 2);
    out.push('"');
    let mut start = 0;
    loop {
        let end = start + plain_run(&bytes[start..]);
        out.push_str(&s[start..end]);
        let Some(&b) = bytes.get(end) else { break };
        match ESCAPE[usize::from(b)] {
            b'u' => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xF)]));
            }
            letter => {
                out.push('\\');
                out.push(char::from(letter));
            }
        }
        start = end + 1;
    }
    out.push('"');
}

/// Alphabet of the packed `u32`-vector encoding: URL- and JSON-safe,
/// one character per item for values below 64.
const PACK_ALPHABET: &[u8; 64] =
    b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz-_";

/// Inverse of [`PACK_ALPHABET`]: byte → value, 255 for invalid bytes.
/// A packed vector is decoded by one table lookup per character, with
/// one OR over the results (valid values are below 64) telling whether
/// any byte was invalid.
const PACK_DECODE: [u8; 256] = {
    let mut table = [255u8; 256];
    let mut i = 0;
    while i < PACK_ALPHABET.len() {
        table[PACK_ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Encode a `u32` vector into the serving layer's canonical compact wire
/// string. Class-label and prediction vectors are almost always small
/// integers, so vectors whose every item is `< 64` pack to one
/// `PACK_ALPHABET` character per item behind a `#` sentinel; anything
/// else falls back to comma-separated decimal. The encoding is
/// canonical: equal vectors encode to identical bytes (the journal's
/// byte-determinism contract extends through it).
#[must_use]
pub fn encode_u32_vec(items: &[u32]) -> String {
    let mut out = Vec::with_capacity(items.len() + 1);
    encode_u32_vec_into(items, |bytes| out.extend_from_slice(bytes));
    String::from_utf8(out).expect("the wire form is ASCII")
}

/// Hand the bytes of [`encode_u32_vec`]`(items)` to `sink` in order, a
/// run at a time, without building the string (the testset digest folds
/// them this way).
pub(crate) fn encode_u32_vec_into(items: &[u32], mut sink: impl FnMut(&[u8])) {
    if items.iter().all(|&v| v < 64) {
        sink(b"#");
        let mut run = [0u8; 64];
        for chunk in items.chunks(run.len()) {
            for (byte, &v) in run.iter_mut().zip(chunk) {
                *byte = PACK_ALPHABET[(v & 63) as usize];
            }
            sink(&run[..chunk.len()]);
        }
        return;
    }
    for (i, &v) in items.iter().enumerate() {
        // A comma then the digits; the first item leaves the comma out.
        let mut item = [b','; 11];
        let mut digits = &mut item[1..];
        let _ = std::io::Write::write_fmt(&mut digits, format_args!("{v}"));
        let end = 11 - digits.len();
        sink(&item[usize::from(i == 0)..end]);
    }
}

/// Decode a string produced by [`encode_u32_vec`].
///
/// # Errors
///
/// A human-readable message for unknown characters or malformed decimal
/// items.
pub fn decode_u32_vec(text: &str) -> Result<Vec<u32>, String> {
    if let Some(packed) = text.strip_prefix('#') {
        let mut items = Vec::new();
        decode_packed_into(packed, &mut items, |_| {})?;
        Ok(items)
    } else if text.is_empty() {
        Ok(Vec::new())
    } else {
        text.split(',')
            .map(|item| {
                item.parse::<u32>()
                    .map_err(|_| format!("invalid vector item `{item}`"))
            })
            .collect()
    }
}

/// Decode the characters of a `#`-packed vector (the text after the
/// `#`) onto `out`, handing every byte to `each` on the way: one pass
/// over the bytes checks the alphabet, writes the items and lets the
/// caller digest what it decodes (the predictions route folds the
/// redelivery digest through `each`).
///
/// # Errors
///
/// A message naming the first character outside the alphabet; `out`
/// then holds a partial decode.
pub(crate) fn decode_packed_into(
    packed: &str,
    out: &mut Vec<u32>,
    mut each: impl FnMut(u8),
) -> Result<(), String> {
    let mut seen = 0u8;
    out.reserve(packed.len());
    out.extend(packed.bytes().map(|b| {
        each(b);
        let v = PACK_DECODE[usize::from(b)];
        seen |= v;
        u32::from(v)
    }));
    if seen < 64 {
        return Ok(());
    }
    let bad = packed
        .bytes()
        .find(|&b| PACK_DECODE[usize::from(b)] == 255)
        .expect("an item decoded out of range");
    Err(format!("invalid packed-vector character `{}`", bad as char))
}

/// Read a `u32` vector from a JSON value: either a packed wire string
/// (see [`encode_u32_vec`]) or a plain array of non-negative integers.
/// This is the reader of HTTP clients and the benchmark, which hold a
/// parsed [`Value`]; no server path calls it, since the server reads
/// vectors with its pull decoders, with the same reasons.
///
/// # Errors
///
/// A message naming `what` for missing/malformed input.
pub fn u32_vec_from_value(value: &Value, what: &str) -> Result<Vec<u32>, String> {
    match value {
        Value::String(text) => decode_u32_vec(text).map_err(|e| format!("{what}: {e}")),
        Value::Array(items) => items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                item.as_u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| format!("{what}[{i}] is not a u32"))
            })
            .collect(),
        _ => Err(format!(
            "{what} must be an array of integers or a packed vector string"
        )),
    }
}

/// A parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the violation.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting depth cap: deeper documents are rejected (stack safety — the
/// body of an HTTP request is attacker-controlled).
const MAX_DEPTH: usize = 64;

/// `n` as a non-negative integer if it is one exactly (no fractional
/// part, at most 2⁵³): the reading of [`Value::as_u64`], shared with the
/// pull decoders that never build a [`Value`].
#[must_use]
pub(crate) fn exact_u64(n: f64) -> Option<u64> {
    (n.fract() == 0.0 && (0.0..=EXACT_INT).contains(&n)).then_some(n as u64)
}

/// What the next value of a [`Reader`] is, told from its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool,
    /// A number.
    Number,
    /// A string.
    String,
    /// An array: [`Reader::array`] walks it.
    Array,
    /// An object: [`Reader::object`] walks it.
    Object,
}

/// A pull reader over one JSON document, and the crate's only JSON
/// tokenizer: [`Value::parse`] is a recursion over it, and decoders that
/// know their schema pull members straight into their own types without
/// building a tree. Every record the server reads has one: request
/// bodies, journal lines, `project.json`, era blobs and `snapshot.json`.
///
/// The caller asks [`Reader::peek`] what comes next and consumes it: a
/// scalar with `try_number`, `try_bool`, `try_str` or `try_null` (the
/// first three skip a value of another kind), any value with
/// [`Reader::skip`], or a container with [`Reader::object`] /
/// [`Reader::array`], which hand each member or element to a closure.
/// Keys and escape-free strings are borrowed from the text. Every value
/// — a scalar too — is checked against the depth cap, and
/// [`Reader::finish`] rejects trailing garbage, so a document walked to
/// its end is accepted exactly when [`Value::parse`] accepts it.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers entered and not yet left.
    depth: usize,
    /// Right after an opening bracket: the container may close at once,
    /// and its first member needs no comma.
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    #[must_use]
    pub(crate) fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    /// Skip whitespace. Pretty documents indent every line, so after a
    /// newline the run of indentation is measured a word at a time.
    fn skip_ws(&mut self) {
        let bytes = self.bytes;
        let mut pos = self.pos;
        while let Some(&b) = bytes.get(pos) {
            match b {
                b' ' | b'\t' | b'\r' => pos += 1,
                b'\n' => {
                    pos += 1;
                    while let Some(word) = bytes.get(pos..pos + 8) {
                        let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
                        // Zero bytes of `spaces` are spaces, in text order
                        // from the lowest byte up.
                        let spaces = word ^ u64::from_le_bytes([b' '; 8]);
                        pos += spaces.trailing_zeros() as usize / 8;
                        if spaces != 0 {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
        self.pos = pos;
    }

    fn peek_byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek_byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    /// Move to the next value and tell what it is.
    ///
    /// # Errors
    ///
    /// Nesting past the depth cap, end of input, or a byte no value
    /// starts with.
    pub(crate) fn peek(&mut self) -> Result<Kind, JsonError> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek_byte() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::String),
            Some(b'[') => Ok(Kind::Array),
            Some(b'{') => Ok(Kind::Object),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Consume `null`.
    fn null(&mut self) -> Result<(), JsonError> {
        self.eat_literal("null")
    }

    /// Consume `true` or `false`.
    fn bool(&mut self) -> Result<bool, JsonError> {
        let value = self.peek_byte() == Some(b't');
        self.eat_literal(if value { "true" } else { "false" })?;
        Ok(value)
    }

    /// Walk the object at the position to its end: `member` consumes the
    /// value of each key, in document order.
    pub(crate) fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.open(b'{', "expected `{`")?;
        while !self.end_of_container(b'}', "expected `,` or `}`")? {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected `:` after object key")?;
            member(self, key)?;
        }
        Ok(())
    }

    /// Walk the array at the position to its end: `element` consumes
    /// each element.
    pub(crate) fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.open(b'[', "expected `[`")?;
        while !self.end_of_container(b']', "expected `,` or `]`")? {
            element(self)?;
        }
        Ok(())
    }

    /// Enter the container at the position.
    fn open(&mut self, bracket: u8, what: &str) -> Result<(), JsonError> {
        self.eat(bracket, what)?;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Step past the separator before a member, or past the closing
    /// bracket (then `true`).
    fn end_of_container(&mut self, close: u8, what: &str) -> Result<bool, JsonError> {
        self.skip_ws();
        let at = self.peek_byte();
        if at == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            self.first = false;
            return Ok(true);
        }
        if std::mem::take(&mut self.first) {
            return Ok(false);
        }
        if at == Some(b',') {
            self.pos += 1;
            Ok(false)
        } else {
            Err(self.err(what))
        }
    }

    /// Consume the value at the position, whatever it is, checking it as
    /// [`Value::parse`] would.
    pub(crate) fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Number => self.number().map(drop),
            Kind::String => self.string().map(drop),
            Kind::Array => self.array(Self::skip),
            Kind::Object => self.object(|r, _| r.skip()),
        }
    }

    /// The next value as a number, or `None` with any other value
    /// skipped.
    pub(crate) fn try_number(&mut self) -> Result<Option<f64>, JsonError> {
        if self.peek()? == Kind::Number {
            self.number().map(Some)
        } else {
            self.skip().map(|()| None)
        }
    }

    /// The next value as a boolean, or `None` with any other value
    /// skipped.
    pub(crate) fn try_bool(&mut self) -> Result<Option<bool>, JsonError> {
        if self.peek()? == Kind::Bool {
            self.bool().map(Some)
        } else {
            self.skip().map(|()| None)
        }
    }

    /// The next value as a string, or `None` with any other value
    /// skipped.
    pub(crate) fn try_str(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if self.peek()? == Kind::String {
            self.string().map(Some)
        } else {
            self.skip().map(|()| None)
        }
    }

    /// Consume the next value if it is `null`; `false` leaves the reader
    /// on the value.
    pub(crate) fn try_null(&mut self) -> Result<bool, JsonError> {
        if self.peek()? == Kind::Null {
            self.null().map(|()| true)
        } else {
            Ok(false)
        }
    }

    /// End of document: only whitespace may follow.
    pub(crate) fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after document"))
        }
    }

    /// The value at the position as a tree.
    fn value(&mut self) -> Result<Value, JsonError> {
        Ok(match self.peek()? {
            Kind::Null => {
                self.null()?;
                Value::Null
            }
            Kind::Bool => Value::Bool(self.bool()?),
            Kind::Number => Value::Number(self.number()?),
            Kind::String => Value::String(self.string()?.into_owned()),
            Kind::Array => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Value::Array(items)
            }
            Kind::Object => {
                let mut pairs = Vec::new();
                self.object(|r, key| {
                    pairs.push((key.into_owned(), r.value()?));
                    Ok(())
                })?;
                Value::Object(pairs)
            }
        })
    }

    /// The text between `start` and the end of the run of plain bytes
    /// there, leaving the position after it. Runs end on an ASCII byte or
    /// at the end of input — always a character boundary of the source.
    fn plain_run(&mut self, start: usize) -> &'a str {
        let text: &'a str = self.text;
        self.pos = start + plain_run(&self.bytes[start..]);
        &text[start..self.pos]
    }

    /// Consume a string: borrowed from the text when it holds no escape.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"', "expected `\"`")?;
        let run = self.plain_run(self.pos);
        if self.peek_byte() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        let mut out = String::from(run);
        loop {
            match self.peek_byte() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek_byte() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            let code = self.unicode_escape()?;
                            out.push(code);
                            out.push_str(self.plain_run(self.pos));
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    out.push_str(self.plain_run(self.pos + 1));
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Position is on the `u` of `\uXXXX`; consumes through the last hex
    /// digit (and a low-surrogate pair when present).
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hex4 = |p: &mut Self| -> Result<u32, JsonError> {
            p.pos += 1; // past `u`
            let end = p.pos + 4;
            if end > p.bytes.len() {
                return Err(p.err("truncated \\u escape"));
            }
            let digits = std::str::from_utf8(&p.bytes[p.pos..end])
                .ok()
                .and_then(|s| u32::from_str_radix(s, 16).ok())
                .ok_or_else(|| p.err("bad \\u escape"))?;
            p.pos = end;
            Ok(digits)
        };
        let high = hex4(self)?;
        if (0xD800..0xDC00).contains(&high) {
            // Expect a low surrogate `\uXXXX` to complete the pair.
            if self.peek_byte() != Some(b'\\') {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 1;
            if self.peek_byte() != Some(b'u') {
                return Err(self.err("unpaired surrogate"));
            }
            let low = hex4(self)?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("invalid low surrogate"));
            }
            let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
            char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))
        } else {
            char::from_u32(high).ok_or_else(|| self.err("invalid \\u code point"))
        }
    }

    /// Consume a number. A token of at most 15 digits, signed or not,
    /// with no exponent is worked out from its digits: an integer is
    /// exact in an `f64`, and a decimal fraction `m / 10^k` is one
    /// correctly rounded division of two exact `f64`s. Both are what
    /// `str::parse` makes of the token, `-0` included. Every other token
    /// goes through `str::parse`.
    fn number(&mut self) -> Result<f64, JsonError> {
        /// Powers of ten up to the largest fraction the fast path takes.
        const POW10: [f64; 16] = [
            1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
        ];
        let start = self.pos;
        let negative = self.peek_byte() == Some(b'-');
        self.pos += usize::from(negative);
        let mut mantissa: u64 = 0;
        let int_digits = self.digits(&mut mantissa);
        let mut fraction_digits = None;
        if self.peek_byte() == Some(b'.') {
            self.pos += 1;
            fraction_digits = Some(self.digits(&mut mantissa));
        }
        let scale = fraction_digits.unwrap_or(0);
        let fast = int_digits > 0
            && fraction_digits != Some(0)
            && int_digits + scale <= 15
            && !matches!(self.peek_byte(), Some(b'e' | b'E'));
        if fast {
            let n = mantissa as f64 / POW10[scale];
            return Ok(if negative { -n } else { n });
        }
        if matches!(self.peek_byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek_byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits(&mut 0);
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .ok_or_else(|| self.err("malformed number"))
    }

    /// Consume a run of decimal digits, accumulating them onto `value`
    /// (wrapping: only runs of at most 15 digits are used); returns its
    /// length.
    fn digits(&mut self, value: &mut u64) -> usize {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if !b.is_ascii_digit() {
                break;
            }
            *value = value.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference escaper, one `char` at a time: [`write_escaped`] must
    /// match it byte for byte.
    fn write_escaped_reference(out: &mut String, s: &str) {
        use std::fmt::Write as _;
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0C}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Reference serializer: the tree walk that rendered every value
    /// before [`JsonWriter`] existed. [`Value::encode`] and
    /// [`Value::pretty`] must match it byte for byte.
    fn write_reference(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
        use std::fmt::Write as _;
        let newline_indent = |out: &mut String, depth: usize| {
            if let Some(width) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', width * depth));
            }
        };
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Number(n) => {
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                        let _ = write!(out, "{n:.0}");
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Value::String(s) => write_escaped_reference(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    write_reference(item, out, indent, depth + 1);
                }
                newline_indent(out, depth);
                out.push(']');
            }
            Value::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    write_escaped_reference(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_reference(value, out, indent, depth + 1);
                }
                newline_indent(out, depth);
                out.push('}');
            }
        }
    }

    fn encode_reference(v: &Value) -> String {
        let mut out = String::new();
        write_reference(v, &mut out, None, 0);
        out
    }

    fn pretty_reference(v: &Value) -> String {
        let mut out = String::new();
        write_reference(v, &mut out, Some(2), 0);
        out.push('\n');
        out
    }

    /// Numbers where an integer fast path can go wrong: signed zeros,
    /// the edges of exact `f64` integers, huge integral values,
    /// subnormals and the values JSON cannot carry.
    const EDGE_NUMBERS: &[f64] = &[
        0.0,
        -0.0,
        1.0,
        -1.0,
        9.0,
        10.0,
        99.0,
        100.0,
        0.5,
        -0.5,
        9_007_199_254_740_991.0,
        9_007_199_254_740_992.0,
        -9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
        -9_007_199_254_740_994.0,
        18_446_744_073_709_551_616.0,
        1e300,
        -1e300,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        2.225_073_858_507_201e-308,
        f64::EPSILON,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    /// Reference encoder, one `char` push per packed item:
    /// [`encode_u32_vec`] must match it byte for byte.
    fn encode_u32_vec_reference(items: &[u32]) -> String {
        if items.iter().all(|&v| v < 64) {
            let mut out = String::with_capacity(items.len() + 1);
            out.push('#');
            out.extend(items.iter().map(|&v| PACK_ALPHABET[v as usize] as char));
            out
        } else {
            items
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(",")
        }
    }

    /// Reference decoder, one `Result` per item: [`decode_u32_vec`] must
    /// return the same values, or the same error naming the first bad
    /// character or item.
    fn decode_u32_vec_reference(text: &str) -> Result<Vec<u32>, String> {
        if let Some(packed) = text.strip_prefix('#') {
            packed
                .bytes()
                .map(|b| match PACK_DECODE[b as usize] {
                    255 => Err(format!("invalid packed-vector character `{}`", b as char)),
                    v => Ok(u32::from(v)),
                })
                .collect()
        } else if text.is_empty() {
            Ok(Vec::new())
        } else {
            text.split(',')
                .map(|item| {
                    item.parse::<u32>()
                        .map_err(|_| format!("invalid vector item `{item}`"))
                })
                .collect()
        }
    }

    /// Characters the escaper and the parser treat specially, and
    /// UTF-8 of every width.
    const SPECIAL: &[char] = &[
        '"',
        '\\',
        '/',
        '\u{7f}',
        'é',
        '€',
        '\u{2028}',
        '😀',
        '\u{10FFFF}',
    ];

    /// Strings where, at density `d` of 8, an item is a [`SPECIAL`]
    /// character or a control byte, else printable ASCII — so both long
    /// plain runs and dense escapes occur.
    fn text() -> impl Strategy<Value = String> {
        (1u32..8).prop_flat_map(|density| {
            prop::collection::vec(
                (0u32..8, 0u32..0x20, 0u32..95, 0usize..SPECIAL.len()),
                0..80,
            )
            .prop_map(move |items| {
                items
                    .into_iter()
                    .map(|(roll, control, ascii, special)| match roll {
                        r if r >= density => char::from_u32(0x20 + ascii).expect("ascii"),
                        r if r % 2 == 0 => char::from_u32(control).expect("control"),
                        _ => SPECIAL[special],
                    })
                    .collect::<String>()
            })
        })
    }

    fn value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            (0u8..2).prop_map(|b| Value::Bool(b == 1)),
            (0u64..(1 << 53)).prop_map(Value::from),
            (-1e9f64..1e9).prop_map(Value::Number),
            (-1e300f64..1e300).prop_map(Value::Number),
            text().prop_map(Value::String),
        ];
        leaf.boxed().prop_recursive(4, 32, 4, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..5).prop_map(Value::Array),
                prop::collection::vec((text(), inner), 0..5).prop_map(Value::Object),
            ]
        })
    }

    /// Any `f64` bit pattern, with the exponents of zeros, subnormals,
    /// NaN/±∞ and of integers on both sides of 2^53 drawn often.
    fn float_bits() -> impl Strategy<Value = f64> {
        (
            0u64..2,
            prop_oneof![Just(0u64), Just(0x7ff), 1020u64..1090, 0u64..0x800],
            prop_oneof![Just(0u64), 0u64..(1 << 52)],
        )
            .prop_map(|(sign, exp, mantissa)| f64::from_bits(sign << 63 | exp << 52 | mantissa))
    }

    /// Inputs for the vector decoder: packed alphabet, digits, commas,
    /// a leading `#` half the time, and bytes it must refuse.
    fn vector_text() -> impl Strategy<Value = String> {
        const POOL: &[char] = &[
            '0', '1', '9', 'A', 'Z', 'a', 'z', '-', '_', ',', '#', '+', ' ', '!', '"', 'é', '😀',
            '\u{0}', '\u{ff}',
        ];
        (0u8..2, prop::collection::vec(0usize..POOL.len(), 0..40)).prop_map(|(hash, picks)| {
            let body: String = picks.into_iter().map(|i| POOL[i]).collect();
            if hash == 1 {
                format!("#{body}")
            } else {
                body
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn escaper_matches_the_char_at_a_time_reference(s in text()) {
            let (mut fast, mut reference) = (String::new(), String::new());
            write_escaped(&mut fast, &s);
            write_escaped_reference(&mut reference, &s);
            prop_assert_eq!(fast, reference);
        }

        #[test]
        fn strings_round_trip_through_escape_and_parse(s in text()) {
            let encoded = Value::from(s.as_str()).encode();
            prop_assert_eq!(Value::parse(&encoded), Ok(Value::String(s)));
        }

        #[test]
        fn values_round_trip_through_both_serializations(v in value()) {
            prop_assert_eq!(Value::parse(&v.encode()), Ok(v.clone()));
            prop_assert_eq!(Value::parse(&v.pretty()), Ok(v));
        }

        #[test]
        fn parse_never_panics_on_spliced_documents(
            v in value(),
            cut in 0usize..4096,
            noise in text(),
        ) {
            // A document cut at a random character boundary with noise
            // spliced in: any `Result` is fine, a panic is not.
            let doc = v.encode();
            let at = doc.char_indices().map(|(i, _)| i).nth(cut % (doc.chars().count() + 1));
            let at = at.unwrap_or(doc.len());
            let _ = Value::parse(&format!("{}{noise}{}", &doc[..at], &doc[at..]));
            let _ = Value::parse(&doc[..at]);
            let _ = Value::parse(&noise);
        }

        #[test]
        fn writer_matches_the_tree_reference(v in value()) {
            prop_assert_eq!(v.encode(), encode_reference(&v));
            prop_assert_eq!(v.pretty(), pretty_reference(&v));
        }

        #[test]
        fn numbers_match_the_reference(
            float in float_bits(),
            int in -(1i64 << 55)..(1i64 << 55),
            uint in 0u64..=u64::MAX,
        ) {
            for n in [float, int as f64] {
                let v = Value::Number(n);
                prop_assert_eq!(v.encode(), encode_reference(&v));
            }
            for u in [uint, uint >> 9, uint >> 11, uint >> 40] {
                let mut w = JsonWriter::compact();
                w.u64(u);
                prop_assert_eq!(w.finish(), encode_reference(&Value::from(u)));
            }
        }

        #[test]
        fn number_fast_path_matches_str_parse(
            sign in 0u8..3,
            int in prop::collection::vec(0u8..10, 0..20),
            leading_zeros in 0usize..3,
            fraction in prop::collection::vec(0u8..10, 0..20),
            dot in 0u8..3,
            exponent in 0u8..6,
        ) {
            // `-`, leading zeros, up to 19 integer and fraction digits, a
            // bare `.`, and exponents: both sides of the 15-digit edge.
            let digits = |d: &[u8]| d.iter().map(|&d| char::from(b'0' + d)).collect::<String>();
            let mut token = String::from(if sign == 0 { "-" } else { "" });
            token.push_str(&"0".repeat(leading_zeros));
            token.push_str(&digits(&int));
            if dot > 0 {
                token.push('.');
                token.push_str(&digits(&fraction));
            }
            token.push_str(["", "", "", "e5", "E-3", "e+400"][usize::from(exponent)]);
            let mut reader = Reader::new(&token);
            let lexed = reader.number().map(f64::to_bits);
            let parsed = token.parse::<f64>().ok().filter(|n| n.is_finite()).map(f64::to_bits);
            prop_assert_eq!(lexed.as_ref().ok(), parsed.as_ref(), "{}", token);
            if lexed.is_ok() {
                prop_assert_eq!(reader.pos, token.len(), "{}", token);
            }
        }

        #[test]
        fn skipping_accepts_exactly_what_the_tree_parser_accepts(
            v in value(),
            cut in 0usize..4096,
            noise in text(),
        ) {
            // A pull reader that only skips the document must end in the
            // same error, at the same byte, as `Value::parse`.
            let skim = |text: &str| {
                let mut reader = Reader::new(text);
                reader.skip()?;
                reader.finish()
            };
            let doc = v.pretty();
            let at = doc.char_indices().map(|(i, _)| i).nth(cut % (doc.chars().count() + 1));
            let at = at.unwrap_or(doc.len());
            for text in [doc.clone(), format!("{}{noise}{}", &doc[..at], &doc[at..]), noise] {
                prop_assert_eq!(skim(&text), Value::parse(&text).map(drop), "{:?}", text);
            }
        }

        #[test]
        fn vector_decoder_matches_the_per_item_reference(text in vector_text()) {
            prop_assert_eq!(decode_u32_vec(&text), decode_u32_vec_reference(&text));
        }

        #[test]
        fn packed_vectors_round_trip(items in prop::collection::vec(0u32..64, 0..300)) {
            let encoded = encode_u32_vec(&items);
            prop_assert!(encoded.starts_with('#'));
            prop_assert_eq!(&encoded, &encode_u32_vec_reference(&items));
            prop_assert_eq!(decode_u32_vec(&encoded), Ok(items));
        }

        #[test]
        fn csv_vectors_round_trip(
            items in prop::collection::vec(0u32..=u32::MAX, 0..40),
            wide in 64u32..=u32::MAX,
            at in 0usize..40,
        ) {
            let mut items = items;
            items.insert(at.min(items.len()), wide);
            let encoded = encode_u32_vec(&items);
            prop_assert!(!encoded.starts_with('#'));
            prop_assert_eq!(&encoded, &encode_u32_vec_reference(&items));
            prop_assert_eq!(decode_u32_vec(&encoded), Ok(items));
        }
    }

    #[test]
    fn every_control_byte_escapes_like_the_reference() {
        for b in 0u8..0x20 {
            let s = format!("ab{}cd", char::from(b));
            let (mut fast, mut reference) = (String::new(), String::new());
            write_escaped(&mut fast, &s);
            write_escaped_reference(&mut reference, &s);
            assert_eq!(fast, reference, "control byte {b:#04x}");
        }
    }

    #[test]
    fn edge_numbers_render_like_the_reference() {
        for &n in EDGE_NUMBERS {
            let v = Value::Number(n);
            assert_eq!(v.encode(), encode_reference(&v), "{n:e}");
            let nested = Value::array([v.clone(), Value::object([("n", v)])]);
            assert_eq!(nested.pretty(), pretty_reference(&nested), "{n:e}");
        }
        assert_eq!(Value::Number(-0.0).encode(), "-0");
        assert_eq!(
            Value::Number(-9_007_199_254_740_992.0).encode(),
            "-9007199254740992"
        );
        for u in [0, 9, 10, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let mut w = JsonWriter::compact();
            w.u64(u);
            assert_eq!(w.finish(), encode_reference(&Value::from(u)), "{u}");
        }
    }

    #[test]
    fn writer_streams_what_the_tree_renders() {
        let doc = Value::object([
            ("empty_obj", Value::object::<&str, _>([])),
            ("empty_arr", Value::array([])),
            (
                "nested",
                Value::array([Value::array([]), Value::object([("k", Value::Null)])]),
            ),
            ("s", Value::from("a\"b")),
        ]);
        for pretty in [false, true] {
            let mut w = if pretty {
                JsonWriter::pretty(0)
            } else {
                JsonWriter::compact()
            };
            w.begin_object();
            w.key("empty_obj").begin_object();
            w.end_object();
            w.key("empty_arr").begin_array();
            w.end_array();
            w.key("nested").begin_array();
            w.begin_array();
            w.end_array();
            w.begin_object();
            w.key("k").null();
            w.end_object();
            w.end_array();
            w.key("s").string("a\"b");
            w.end_object();
            let want = if pretty { doc.pretty() } else { doc.encode() };
            assert_eq!(w.finish(), want);
        }
    }

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Value::object([
            ("name", Value::from("vision-main")),
            ("steps", Value::from(32u64)),
            ("ok", Value::from(true)),
            ("nothing", Value::Null),
            (
                "estimate",
                Value::object([
                    ("labeled", Value::from(6279u64)),
                    ("rate", Value::from(0.125f64)),
                ]),
            ),
            (
                "history",
                Value::array([Value::from("a"), Value::from(1u64)]),
            ),
        ]);
        for text in [doc.encode(), doc.pretty()] {
            assert_eq!(Value::parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Value::from(687_736u64).encode(), "687736");
        assert_eq!(Value::from(0u64).encode(), "0");
        assert_eq!(Value::from(0.5f64).encode(), "0.5");
        assert_eq!(Value::Number(-3.0).encode(), "-3");
        assert_eq!(Value::Number(f64::NAN).encode(), "null");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let tricky = "line\nbreak \"quote\" back\\slash tab\t ctrl\u{01} smile\u{1F600}";
        let encoded = Value::from(tricky).encode();
        assert_eq!(Value::parse(&encoded).unwrap().as_str(), Some(tricky));
        // Standard escapes parse too.
        let v = Value::parse(r#""a\u0041\u00e9\ud83d\ude00\/b""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\u{e9}\u{1F600}/b"));
    }

    #[test]
    fn object_get_and_accessors() {
        let v = Value::parse(r#"{"a": 3, "b": "x", "c": [1, 2], "d": true}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(
            v.get("c").and_then(Value::as_array).map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(v.get("d").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::parse("2.5").unwrap().as_u64(), None);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": }",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\": 1} trailing",
            "\u{1}",
            "nan",
            "\"\\q\"",
            "\"\\ud800\"",
            "-",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn numbers_on_both_sides_of_the_fast_path_parse_exactly() {
        for (token, want) in [
            ("0", 0.0f64),
            ("-0", -0.0),
            ("007", 7.0),
            ("999999999999999", 999_999_999_999_999.0),
            ("9007199254740993", 9_007_199_254_740_992.0),
            ("0.1", 0.1),
            ("-0.020000000000000018", -0.020_000_000_000_000_018),
            ("0.30000000000000004", 0.300_000_000_000_000_04),
            ("1e2", 100.0),
            ("1.", 1.0),
        ] {
            let v = Value::parse(token).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), want.to_bits(), "{token}");
        }
        assert_eq!(Value::parse("-0").unwrap().as_u64(), Some(0));
        assert!(Value::parse("1e400").is_err());
    }

    #[test]
    fn deep_nesting_is_capped() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Value::parse(&deep).is_err());
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(Value::parse(&ok).is_ok());
    }

    #[test]
    fn u32_vectors_round_trip_through_both_encodings() {
        // Small-alphabet vectors pack to one char per item.
        let small = vec![0u32, 1, 9, 35, 63, 10, 36, 62];
        let packed = encode_u32_vec(&small);
        assert_eq!(packed, "#019Z_Aa-");
        assert_eq!(decode_u32_vec(&packed).unwrap(), small);
        // Any item ≥ 64 falls back to decimal CSV.
        let big = vec![3u32, 64, 100_000];
        let csv = encode_u32_vec(&big);
        assert_eq!(csv, "3,64,100000");
        assert_eq!(decode_u32_vec(&csv).unwrap(), big);
        // Empty vector.
        assert_eq!(
            decode_u32_vec(&encode_u32_vec(&[])).unwrap(),
            Vec::<u32>::new()
        );
        // Both wire forms arrive through `u32_vec_from_value`.
        assert_eq!(
            u32_vec_from_value(&Value::from(packed.as_str()), "v").unwrap(),
            small
        );
        assert_eq!(
            u32_vec_from_value(&Value::array([Value::from(3u64), Value::from(64u64)]), "v")
                .unwrap(),
            vec![3, 64]
        );
        // The packed pass hands every byte it decodes to its caller.
        let (mut items, mut bytes) = (Vec::new(), Vec::new());
        decode_packed_into(&packed[1..], &mut items, |b| bytes.push(b)).unwrap();
        assert_eq!((items, bytes), (small, packed.as_bytes()[1..].to_vec()));
        let mut items = Vec::new();
        assert_eq!(
            decode_packed_into("0!", &mut items, |_| {}),
            Err("invalid packed-vector character `!`".into())
        );
    }

    #[test]
    fn malformed_u32_vectors_are_rejected() {
        assert!(decode_u32_vec("#!").is_err());
        assert!(decode_u32_vec("1,x").is_err());
        assert!(decode_u32_vec("1,,2").is_err());
        assert!(u32_vec_from_value(&Value::from(true), "v").is_err());
        assert!(u32_vec_from_value(&Value::array([Value::from(0.5f64)]), "v").is_err());
        assert!(u32_vec_from_value(&Value::array([Value::Number(-1.0)]), "v").is_err());
    }

    #[test]
    fn pretty_output_is_stable() {
        let v = Value::object([("k", Value::from(1u64)), ("l", Value::array([]))]);
        assert_eq!(v.pretty(), "{\n  \"k\": 1,\n  \"l\": []\n}\n");
    }
}
