//! Typed pull decoders for the records the server reads, and the field
//! readers they share.
//!
//! Every record is decoded in one pass of the pull reader
//! ([`crate::json::Reader`]), with no [`crate::json::Value`] tree: a
//! commit ([`commit_members`]: the counts and predictions request bodies,
//! the journal lines restart replay reads and the history entries of
//! `snapshot.json`), a project ([`decode_project`]: the register and
//! fresh-testset bodies and `project.json`) and a testset spec
//! ([`decode_testset`]: their `testset` member and the era blobs).
//!
//! A decoder records what it found and walks the document to its end, so
//! a syntax error anywhere wins over a missing or malformed member, as it
//! does when a document is parsed whole. Keys match after their escapes
//! are undone, unknown keys are skipped (their values still checked) and
//! the first of duplicate keys wins. Each caller then applies its own
//! requirements, defaults and wording, so the live route and the boot
//! replay read a commit through the same code.

use crate::json::{exact_u64, JsonError, Kind, Reader};
use crate::registry::WireVector;
use easeml_ci_core::PerClassCounts;
use std::borrow::Cow;

/// Which keys of one object were read already: the first of duplicate
/// keys wins, later ones are skipped.
#[derive(Default)]
pub(crate) struct Seen(u32);

impl Seen {
    /// Whether key number `bit` comes up for the first time.
    pub(crate) fn first(&mut self, bit: u32) -> bool {
        let fresh = self.0 & (1 << bit) == 0;
        self.0 |= 1 << bit;
        fresh
    }
}

/// Walk the object at the reader: `member` reads the value of each key
/// it takes (telling first occurrences apart with the [`Seen`] it is
/// handed) and returns `false` for the others, whose values are then
/// skipped. Any value that is no object is skipped and reads as an
/// object without members.
pub(crate) fn walk_object<'a>(
    r: &mut Reader<'a>,
    mut member: impl FnMut(&mut Reader<'a>, &str, &mut Seen) -> Result<bool, JsonError>,
) -> Result<(), JsonError> {
    if r.peek()? != Kind::Object {
        return r.skip();
    }
    let mut seen = Seen::default();
    r.object(|r, key| match member(r, &key, &mut seen)? {
        true => Ok(()),
        false => r.skip(),
    })
}

/// An array of integers as the pull decoder found it.
pub(crate) enum Ints<T> {
    /// Absent, or not an array.
    Missing,
    /// An array with an element that is no exact integer of the type.
    NonInteger,
    /// Every element.
    Read(Vec<T>),
}

/// The next value as an exact integer; `None` for anything else.
pub(crate) fn read_u64(r: &mut Reader<'_>) -> Result<Option<u64>, JsonError> {
    Ok(r.try_number()?.and_then(exact_u64))
}

/// The next value as a `u32`; `None` for anything else.
pub(crate) fn read_u32(r: &mut Reader<'_>) -> Result<Option<u32>, JsonError> {
    Ok(read_u64(r)?.and_then(|v| u32::try_from(v).ok()))
}

/// The next value as a canonical digest string; `None` for anything
/// else.
pub(crate) fn read_digest(r: &mut Reader<'_>) -> Result<Option<u64>, JsonError> {
    Ok(r.try_str()?.as_deref().and_then(parse_digest_hex))
}

/// The next value as `read` reads it, or `None` when it is `null`: a
/// member that may be absent or `null` is `None` either way, and
/// `Some(None)` when it is malformed.
pub(crate) fn nullable<'a, T>(
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Result<Option<T>, JsonError>,
) -> Result<Option<Option<T>>, JsonError> {
    Ok(if r.try_null()? { None } else { Some(read(r)?) })
}

/// The next value as an array of exact integers of type `T`.
pub(crate) fn read_ints<T: TryFrom<u64>>(r: &mut Reader<'_>) -> Result<Ints<T>, JsonError> {
    if r.peek()? != Kind::Array {
        r.skip()?;
        return Ok(Ints::Missing);
    }
    let (mut items, mut whole) = (Vec::new(), true);
    r.array(|r| {
        match read_u64(r)?.and_then(|v| T::try_from(v).ok()) {
            Some(item) if whole => items.push(item),
            _ => whole = false,
        }
        Ok(())
    })?;
    Ok(if whole {
        Ints::Read(items)
    } else {
        Ints::NonInteger
    })
}

/// Parse a canonical digest string: 16 hex digits.
pub(crate) fn parse_digest_hex(text: &str) -> Option<u64> {
    (text.len() == 16)
        .then(|| u64::from_str_radix(text, 16).ok())
        .flatten()
}

/// The vectors of a `per_class` object, in the order they are written
/// and checked.
pub(crate) const PER_CLASS_VECTORS: [&str; 5] =
    ["support", "new_tp", "old_tp", "new_pred", "old_pred"];

/// Read a `per_class` member: `null` is none; anything else must be an
/// object `{"classes": C, "support": [...], "new_tp": [...], "old_tp":
/// [...], "new_pred": [...], "old_pred": [...]}`, or the inner error is
/// its reason (see [`per_class_counts`]).
pub(crate) fn decode_per_class(
    r: &mut Reader<'_>,
) -> Result<Option<Result<PerClassCounts, String>>, JsonError> {
    if r.try_null()? {
        return Ok(None);
    }
    let mut classes = None;
    let mut vectors = [(); 5].map(|()| Ints::Missing);
    walk_object(r, |r, key, seen| {
        match key {
            "classes" if seen.first(0) => classes = read_u32(r)?,
            key => match PER_CLASS_VECTORS.iter().position(|&k| k == key) {
                Some(i) if seen.first(1 + i as u32) => vectors[i] = read_ints(r)?,
                _ => return Ok(false),
            },
        }
        Ok(true)
    })?;
    Ok(Some(per_class_counts(classes, vectors)))
}

/// Per-class counts from the fields of a `per_class` object, checked in
/// a fixed order: `classes`, then each of [`PER_CLASS_VECTORS`].
pub(crate) fn per_class_counts(
    classes: Option<u32>,
    vectors: [Ints<u64>; 5],
) -> Result<PerClassCounts, String> {
    let classes = classes.ok_or_else(|| "per_class: missing or bad `classes`".to_owned())?;
    let mut read = vectors.into_iter().zip(PER_CLASS_VECTORS).map(|v| match v {
        (Ints::Read(values), _) => Ok(values),
        (Ints::Missing, key) => Err(format!("per_class: missing `{key}`")),
        (Ints::NonInteger, key) => Err(format!("per_class: non-integer entry in `{key}`")),
    });
    // Fields initialise in order, so the first bad vector is the reason.
    let mut next = || read.next().expect("one vector per name");
    Ok(PerClassCounts {
        classes,
        support: next()?,
        new_tp: next()?,
        old_tp: next()?,
        new_pred: next()?,
        old_pred: next()?,
    })
}

/// Read one `u32` vector member named `what`: a string as it stands, an
/// array item by item (the first element that is no `u32` makes it
/// invalid), anything else invalid.
pub(crate) fn wire_vector<'a>(r: &mut Reader<'a>, what: &str) -> Result<WireVector<'a>, JsonError> {
    match r.peek()? {
        Kind::String => Ok(WireVector::Text(r.try_str()?.expect("a string"))),
        Kind::Array => {
            let (mut items, mut bad) = (Vec::new(), None);
            r.array(|r| {
                match read_u32(r)? {
                    Some(v) => items.push(v),
                    None => bad = bad.or(Some(items.len())),
                }
                Ok(())
            })?;
            Ok(match bad {
                None => WireVector::Items(items),
                Some(i) => WireVector::Invalid(format!("{what}[{i}] is not a u32")),
            })
        }
        _ => {
            r.skip()?;
            Ok(WireVector::Invalid(format!(
                "{what} must be an array of integers or a packed vector string"
            )))
        }
    }
}

/// The point estimates of a history entry, in the order they are written
/// and checked.
pub(crate) const ESTIMATES: [&str; 4] = ["d", "n", "o", "diff"];

/// The members of a commit record as [`commit_members`] found them: a
/// scalar is `None` when absent or of another kind; a member that may be
/// `null` is `None` when absent or `null`, and `Some(None)` (or an error)
/// when malformed.
#[derive(Default)]
pub(crate) struct CommitRecord<'a> {
    /// The op of a journal line.
    pub op: Option<Cow<'a, str>>,
    /// The commit id: `commit_id` in a request, `id` elsewhere.
    pub id: Option<Cow<'a, str>>,
    pub samples: Option<u64>,
    pub new_correct: Option<u64>,
    pub old_correct: Option<u64>,
    pub changed: Option<u64>,
    pub labels: Option<Option<u64>>,
    pub per_class: Option<Result<PerClassCounts, String>>,
    /// The prediction vectors.
    pub old: Option<WireVector<'a>>,
    pub new: Option<WireVector<'a>>,
    /// The recorded outcome of a journalled commit or history entry.
    pub passed: Option<bool>,
    pub step: Option<u64>,
    pub era: Option<u64>,
    pub outcome: Option<Cow<'a, str>>,
    pub accepted: Option<bool>,
    /// The point estimates of a history entry, in [`ESTIMATES`] order.
    pub estimates: [Option<Option<f64>>; 4],
    /// A history entry's prediction-pair key, FNV-1a (written before
    /// XXH64 keyed pairs) or XXH64.
    pub pred_digest: Option<Option<u64>>,
    pub pred_xxh64: Option<Option<u64>>,
    /// The blob digest of a `fresh_testset` op.
    pub testset_digest: Option<Option<u64>>,
}

/// Read the commit record at the reader, whose commit id is keyed
/// `id_key`. Errors are the document's syntax errors only.
pub(crate) fn commit_members<'a>(
    r: &mut Reader<'a>,
    id_key: &str,
) -> Result<CommitRecord<'a>, JsonError> {
    let mut c = CommitRecord::default();
    walk_object(r, |r, key, seen| {
        // Ordered as a snapshot's history entries are written: boot reads
        // those by the thousand.
        match key {
            key if key == id_key && seen.first(0) => c.id = r.try_str()?,
            "step" if seen.first(1) => c.step = read_u64(r)?,
            "era" if seen.first(2) => c.era = read_u64(r)?,
            "outcome" if seen.first(3) => c.outcome = r.try_str()?,
            "passed" if seen.first(4) => c.passed = r.try_bool()?,
            "accepted" if seen.first(5) => c.accepted = r.try_bool()?,
            "d" if seen.first(6) => c.estimates[0] = nullable(r, Reader::try_number)?,
            "n" if seen.first(7) => c.estimates[1] = nullable(r, Reader::try_number)?,
            "o" if seen.first(8) => c.estimates[2] = nullable(r, Reader::try_number)?,
            "diff" if seen.first(9) => c.estimates[3] = nullable(r, Reader::try_number)?,
            "labels" if seen.first(10) => c.labels = nullable(r, read_u64)?,
            "pred_digest" if seen.first(11) => c.pred_digest = nullable(r, read_digest)?,
            "pred_xxh64" if seen.first(21) => c.pred_xxh64 = nullable(r, read_digest)?,
            "per_class" if seen.first(12) => c.per_class = decode_per_class(r)?,
            "op" if seen.first(13) => c.op = r.try_str()?,
            "samples" if seen.first(14) => c.samples = read_u64(r)?,
            "new_correct" if seen.first(15) => c.new_correct = read_u64(r)?,
            "old_correct" if seen.first(16) => c.old_correct = read_u64(r)?,
            "changed" if seen.first(17) => c.changed = read_u64(r)?,
            "old" if seen.first(18) => c.old = Some(wire_vector(r, "old")?),
            "new" if seen.first(19) => c.new = Some(wire_vector(r, "new")?),
            "testset_digest" if seen.first(20) => c.testset_digest = nullable(r, read_digest)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(c)
}

/// Decode a whole document: `decode` reads its one value.
pub(crate) fn decode_document<'a, T>(
    text: &'a str,
    decode: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonError>,
) -> Result<T, JsonError> {
    let mut r = Reader::new(text);
    let value = decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// The members of a testset spec as [`decode_testset`] found them:
/// `labels`, `labeling` and `classes` wherever a spec is read, `version`
/// and `era` of an era blob, `digest` of the registration record.
#[derive(Default)]
pub(crate) struct TestsetFields<'a> {
    pub labels: Option<WireVector<'a>>,
    /// `None` when absent or no string.
    pub labeling: Option<Cow<'a, str>>,
    pub classes: Option<Option<u32>>,
    pub version: Option<u64>,
    pub era: Option<u64>,
    pub digest: Option<u64>,
}

/// Read the testset spec at the reader.
pub(crate) fn decode_testset<'a>(r: &mut Reader<'a>) -> Result<TestsetFields<'a>, JsonError> {
    let mut t = TestsetFields::default();
    walk_object(r, |r, key, seen| {
        match key {
            "labels" if seen.first(0) => t.labels = Some(wire_vector(r, "testset.labels")?),
            "labeling" if seen.first(1) => t.labeling = r.try_str()?,
            "classes" if seen.first(2) => t.classes = nullable(r, read_u32)?,
            "version" if seen.first(3) => t.version = read_u64(r)?,
            "era" if seen.first(4) => t.era = read_u64(r)?,
            "digest" if seen.first(5) => t.digest = read_digest(r)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(t)
}

/// The members of a project record as [`decode_project`] found them.
#[derive(Default)]
pub(crate) struct ProjectFields<'a> {
    pub name: Option<Cow<'a, str>>,
    pub script: Option<Cow<'a, str>>,
    /// `None` when absent or `null`.
    pub testset: Option<TestsetFields<'a>>,
}

/// Read the project record at the reader: a register or fresh-testset
/// body, or `project.json`.
pub(crate) fn decode_project<'a>(r: &mut Reader<'a>) -> Result<ProjectFields<'a>, JsonError> {
    let mut p = ProjectFields::default();
    walk_object(r, |r, key, seen| {
        match key {
            "name" if seen.first(0) => p.name = r.try_str()?,
            "script" if seen.first(1) => p.script = r.try_str()?,
            "testset" if seen.first(2) => {
                p.testset = nullable(r, |r| decode_testset(r).map(Some))?.flatten();
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(p)
}

#[cfg(test)]
pub(crate) mod hostile {
    //! Hostile edits of a record's text, for the differential tests that
    //! hold each pull decoder to the tree reader it replaced.

    use crate::json::Value;
    use proptest::prelude::*;

    /// One hostile edit: its kind, two positions and an odd value (see
    /// [`edit_json`]).
    pub(crate) type Edit = (u32, usize, usize, usize);

    /// Up to `max` hostile edits.
    pub(crate) fn edits(max: usize) -> impl Strategy<Value = Vec<Edit>> {
        prop::collection::vec(
            (
                0u32..12,
                0usize..1 << 20,
                0usize..1 << 20,
                0usize..ODD_VALUES.len(),
            ),
            0..max + 1,
        )
    }

    /// `text` after each of `edits` in turn.
    pub(crate) fn edited(text: &str, edits: &[Edit], compact: bool) -> String {
        edits.iter().fold(text.to_owned(), |text, &edit| {
            edit_json(&text, edit, compact)
        })
    }

    /// Values that a hostile edit puts where a record has another:
    /// the other JSON kinds, integers in spellings the tree reads as
    /// integers too, out-of-range and non-integral numbers, a valid
    /// digest, an escaped outcome, and containers.
    pub(crate) const ODD_VALUES: &[&str] = &[
        "null",
        "true",
        "false",
        "0",
        "-0",
        "1.0",
        "1e0",
        "2.5",
        "-1",
        "4294967296",
        "9007199254740993",
        "\"True\"",
        "\"Tr\\u0075e\"",
        "\"0123456789abcdef\"",
        "\"\"",
        "[]",
        "{}",
        "[1, 2, 3]",
        "[0, -1]",
        "{\"classes\": 1, \"support\": [1]}",
        "[[[[{\"deep\": [null]}]]]]",
    ];

    /// The paths (element and member indices) of every object in `v`
    /// and of every array element, depth first.
    pub(crate) fn container_paths(
        v: &Value,
        path: &mut Vec<usize>,
        objects: &mut Vec<Vec<usize>>,
        elements: &mut Vec<Vec<usize>>,
    ) {
        let children: Vec<&Value> = match v {
            Value::Object(pairs) => {
                objects.push(path.clone());
                pairs.iter().map(|(_, v)| v).collect()
            }
            Value::Array(items) => items.iter().collect(),
            _ => Vec::new(),
        };
        for (i, child) in children.into_iter().enumerate() {
            path.push(i);
            if matches!(v, Value::Array(_)) {
                elements.push(path.clone());
            }
            container_paths(child, path, objects, elements);
            path.pop();
        }
    }

    pub(crate) fn value_at<'v>(v: &'v mut Value, path: &[usize]) -> &'v mut Value {
        path.iter().fold(v, |v, &i| match v {
            Value::Object(pairs) => &mut pairs[i].1,
            Value::Array(items) => &mut items[i],
            _ => unreachable!("paths lead through containers"),
        })
    }

    pub(crate) fn members_at<'v>(v: &'v mut Value, path: &[usize]) -> &'v mut Vec<(String, Value)> {
        match value_at(v, path) {
            Value::Object(pairs) => pairs,
            _ => unreachable!("paths end at objects"),
        }
    }

    /// One hostile edit of a record's text. Edits `0..=5` change the
    /// parsed document and render it again: drop a member, add a
    /// duplicate of one before or after it, reorder the members, add an
    /// unknown key, replace a member's value (half of these pick the top
    /// level object), replace an array element. Edits `6..` work on the
    /// text: flip a bit of an ASCII byte, truncate, delete, duplicate or
    /// swap lines, spell a key's first letter as a `\u` escape.
    pub(crate) fn edit_json(text: &str, (op, a, b, odd): Edit, compact: bool) -> String {
        let odd = Value::parse(ODD_VALUES[odd]).expect("odd values parse");
        if op <= 5 {
            let Ok(mut doc) = Value::parse(text) else {
                return text.to_owned();
            };
            let (mut objects, mut elements) = (Vec::new(), Vec::new());
            container_paths(&doc, &mut Vec::new(), &mut objects, &mut elements);
            if op == 5 {
                if let Some(path) = elements.get(a % elements.len().max(1)) {
                    *value_at(&mut doc, path) = odd;
                }
                return if compact { doc.encode() } else { doc.pretty() };
            }
            let Some(path) = (if b % 2 == 0 {
                objects.first()
            } else {
                objects.get(b / 2 % objects.len().max(1))
            }) else {
                return text.to_owned();
            };
            let members = members_at(&mut doc, path);
            let len = members.len();
            match op {
                0 if len > 0 => {
                    members.remove(a % len);
                }
                1 if len > 0 => {
                    let key = members[a % len].0.clone();
                    let at = if b % 4 < 2 { a % len } else { a % len + 1 };
                    members.insert(at, (key, odd));
                }
                2 if len > 1 => {
                    if a % 2 == 0 {
                        members.reverse();
                    } else {
                        members.rotate_left(1 + a % (len - 1));
                    }
                }
                3 => members.insert(a % (len + 1), (format!("x{b}"), odd)),
                4 if len > 0 => members[a % len].1 = odd,
                _ => {}
            }
            return if compact { doc.encode() } else { doc.pretty() };
        }
        let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
        let (x, y) = (a % lines.len().max(1), b % lines.len().max(1));
        match op {
            6 => {
                let mut bytes = text.as_bytes().to_vec();
                if let Some(byte) = bytes.get_mut(a % text.len().max(1)) {
                    if byte.is_ascii() {
                        *byte ^= 1 << (b % 7);
                    }
                }
                String::from_utf8(bytes).expect("an ASCII flip keeps UTF-8")
            }
            7 => {
                let cut = text
                    .char_indices()
                    .map(|(i, _)| i)
                    .nth(a % text.len().max(1));
                text[..cut.unwrap_or(text.len())].to_owned()
            }
            8..=10 if lines.is_empty() => text.to_owned(),
            8 => {
                lines.remove(x);
                lines.concat()
            }
            9 => {
                lines.insert(x, lines[x]);
                lines.concat()
            }
            10 => {
                lines.swap(x, y);
                lines.concat()
            }
            _ => {
                let keys: Vec<usize> = text.match_indices("\":").map(|(i, _)| i).collect();
                let Some(&end) = keys.get(a % keys.len().max(1)) else {
                    return text.to_owned();
                };
                // An earlier edit may have left no opening quote.
                let Some(start) = text[..end].rfind('"').map(|i| i + 1) else {
                    return text.to_owned();
                };
                match text[start..end].chars().next() {
                    Some(c) if c.is_ascii_alphabetic() => format!(
                        "{}\\u{:04x}{}",
                        &text[..start],
                        c as u32,
                        &text[start + 1..]
                    ),
                    _ => text.to_owned(),
                }
            }
        }
    }
}
