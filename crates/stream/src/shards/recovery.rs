//! The sharded checkpoint manifest: one base checkpoint plus per-shard
//! slices, checksummed as a set.
//!
//! # Format
//!
//! ```text
//! qhdcd-shard-manifest v2
//! checksum <fnv1a over everything below, 16 hex digits>
//! shards <N>
//! epoch <E>
//! base <byte-length> <fnv1a>
//! slice <shard-id> <byte-length> <fnv1a>     (one line per shard, 0..N)
//! <base section bytes><slice 0 bytes>...<slice N-1 bytes>
//! ```
//!
//! The **base section** is byte-for-byte a [`ServiceCheckpoint`] text — the
//! same bytes a 1-shard [`StreamingService`](crate::StreamingService) would
//! checkpoint from the same state (the checkpoint-bytes pin in
//! `tests/sharded.rs`). Each **slice section** carries one shard's view:
//!
//! ```text
//! shard <id>
//! owned <slot>...                (ascending; empty list allowed)
//! sigma <bits>...                (raw Σtot bits of the owned slots, in order)
//! entries <count>
//! <count shard-journal lines>    (`<batch> <pos> <batch-length> <p|r> <event>`)
//! ```
//!
//! Sections are delimited by the declared byte lengths and guarded by
//! per-section FNV-1a checksums, so a missing, truncated, reordered or
//! bit-flipped slice is always detected and named. The slice `sigma` bits
//! must match the base checkpoint's aggregates at the owned slots — a slice
//! from a different run (or a stale one) fails that cross-check instead of
//! silently restoring mixed state.

use super::router::{entries_to_log, ShardJournalEntry};
use crate::checkpoint::fnv1a;
use crate::StreamError;

/// One shard's section of a [`ShardManifest`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ShardSlice {
    /// The shard id (slices are stored in id order 0..shards).
    pub(crate) id: usize,
    /// Community slots the shard owned when the manifest was cut, ascending.
    pub(crate) owned: Vec<usize>,
    /// Raw `Σtot` bit patterns of the owned slots, in `owned` order.
    pub(crate) sigma_bits: Vec<u64>,
    /// The shard's journal entries at manifest time.
    pub(crate) entries: Vec<ShardJournalEntry>,
}

impl ShardSlice {
    fn to_text(&self) -> String {
        let mut out = format!("shard {}\n", self.id);
        out.push_str("owned");
        for &slot in &self.owned {
            out.push_str(&format!(" {slot}"));
        }
        out.push('\n');
        out.push_str("sigma");
        for &bits in &self.sigma_bits {
            out.push_str(&format!(" {bits:016x}"));
        }
        out.push('\n');
        out.push_str(&format!("entries {}\n", self.entries.len()));
        out.push_str(&entries_to_log(&self.entries));
        out
    }

    fn from_text(text: &str, id: usize) -> Result<Self, StreamError> {
        let err = |reason: String| StreamError::Manifest { line: 0, reason };
        let mut lines = text.lines();
        let mut expect = |keyword: &str| -> Result<String, StreamError> {
            let raw = lines.next().ok_or_else(|| {
                err(format!("slice of shard {id} ended early, expected `{keyword}`"))
            })?;
            raw.strip_prefix(keyword).map(|rest| rest.trim().to_string()).ok_or_else(|| {
                err(format!("slice of shard {id}: expected `{keyword}`, got `{raw}`"))
            })
        };
        let header = expect("shard")?;
        let stated: usize = header
            .parse()
            .map_err(|e| err(format!("slice of shard {id}: invalid shard id `{header}`: {e}")))?;
        if stated != id {
            return Err(err(format!("slice at position {id} declares shard id {stated}")));
        }
        let owned = expect("owned")?
            .split_whitespace()
            .map(|tok| {
                tok.parse::<usize>()
                    .map_err(|e| err(format!("slice of shard {id}: invalid slot `{tok}`: {e}")))
            })
            .collect::<Result<Vec<usize>, StreamError>>()?;
        let sigma_bits = expect("sigma")?
            .split_whitespace()
            .map(|tok| {
                u64::from_str_radix(tok, 16).map_err(|e| {
                    err(format!("slice of shard {id}: invalid sigma bits `{tok}`: {e}"))
                })
            })
            .collect::<Result<Vec<u64>, StreamError>>()?;
        if sigma_bits.len() != owned.len() {
            return Err(err(format!(
                "slice of shard {id} declares {} owned slots but {} sigma values",
                owned.len(),
                sigma_bits.len()
            )));
        }
        let count: usize = expect("entries")?
            .parse()
            .map_err(|e| err(format!("slice of shard {id}: invalid entry count: {e}")))?;
        let entries = lines
            .enumerate()
            .map(|(i, line)| ShardJournalEntry::parse_line(line, i + 1))
            .collect::<Result<Vec<ShardJournalEntry>, StreamError>>()?;
        if entries.len() != count {
            return Err(err(format!(
                "slice of shard {id} declares {count} journal entries but carries {}",
                entries.len()
            )));
        }
        Ok(ShardSlice { id, owned, sigma_bits, entries })
    }
}

/// A parsed sharded checkpoint manifest: the base [`ServiceCheckpoint`] text
/// plus one validated slice per shard. Produced by
/// [`StreamingService::checkpoint`](crate::StreamingService::checkpoint) at
/// more than one shard and consumed by
/// [`StreamingService::recover_sharded`](crate::StreamingService::recover_sharded).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardManifest {
    /// Number of shards the manifest was cut with.
    pub shards: usize,
    /// Epoch at manifest time.
    pub epoch: u64,
    pub(crate) base_text: String,
    pub(crate) slices: Vec<ShardSlice>,
}

impl ShardManifest {
    /// The embedded base checkpoint text — byte-for-byte the
    /// [`ServiceCheckpoint`](crate::ServiceCheckpoint) a 1-shard service
    /// would produce from the same state.
    pub fn base_text(&self) -> &str {
        &self.base_text
    }

    /// Serializes the manifest (see the module docs for the format).
    pub fn to_text(&self) -> String {
        let mut header = String::new();
        header.push_str(&format!("shards {}\n", self.shards));
        header.push_str(&format!("epoch {}\n", self.epoch));
        header.push_str(&format!(
            "base {} {:016x}\n",
            self.base_text.len(),
            fnv1a(self.base_text.as_bytes())
        ));
        let slice_texts: Vec<String> = self.slices.iter().map(ShardSlice::to_text).collect();
        for (slice, text) in self.slices.iter().zip(&slice_texts) {
            header.push_str(&format!(
                "slice {} {} {:016x}\n",
                slice.id,
                text.len(),
                fnv1a(text.as_bytes())
            ));
        }
        let mut body = header;
        body.push_str(&self.base_text);
        for text in &slice_texts {
            body.push_str(text);
        }
        format!("qhdcd-shard-manifest v2\nchecksum {:016x}\n{body}", fnv1a(body.as_bytes()))
    }

    /// Parses and validates [`ShardManifest::to_text`] output: global and
    /// per-section checksums, section lengths, slice ordering and per-slice
    /// structure. Errors name the offending shard.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::Manifest`] with the 1-based header line (0 for
    /// section-level problems).
    pub fn from_text(text: &str) -> Result<Self, StreamError> {
        let err = |line: usize, reason: String| StreamError::Manifest { line, reason };
        let mut lines = text.lines().enumerate();
        let mut expect = |keyword: &str| -> Result<(usize, String), StreamError> {
            let (lineno, raw) = lines
                .next()
                .ok_or_else(|| err(0, format!("unexpected end of input, expected `{keyword}`")))?;
            let rest = raw
                .strip_prefix(keyword)
                .ok_or_else(|| err(lineno + 1, format!("expected `{keyword}`, got `{raw}`")))?;
            Ok((lineno, rest.trim().to_string()))
        };
        let (lineno, version) = expect("qhdcd-shard-manifest")?;
        if version != "v2" {
            return Err(err(lineno + 1, format!("unsupported manifest version `{version}`")));
        }
        let computed = text.splitn(3, '\n').nth(2).map(|body| fnv1a(body.as_bytes()));
        let (cks_lineno, cks_body) = expect("checksum")?;
        let stored = u64::from_str_radix(&cks_body, 16)
            .map_err(|e| err(cks_lineno + 1, format!("invalid checksum `{cks_body}`: {e}")))?;
        let (lineno, body) = expect("shards")?;
        let shards: usize = body
            .parse()
            .map_err(|e| err(lineno + 1, format!("invalid shard count `{body}`: {e}")))?;
        if shards == 0 {
            return Err(err(lineno + 1, "manifest declares zero shards".into()));
        }
        let (lineno, body) = expect("epoch")?;
        let epoch: u64 =
            body.parse().map_err(|e| err(lineno + 1, format!("invalid epoch `{body}`: {e}")))?;
        let (lineno, body) = expect("base")?;
        let (_, base_len, base_sum) = parse_section_line(lineno, &body, 2)?;
        // Both vectors grow from the slice lines actually read: the declared
        // count is not trusted before the checksums are.
        let mut slice_decls = Vec::new();
        let mut last_header_line = lineno;
        for expected_id in 0..shards {
            let (lineno, body) = expect("slice")?;
            last_header_line = lineno;
            let (ids, len, sum) = parse_section_line(lineno, &body, 3)?;
            let id: usize = ids[0]
                .parse()
                .map_err(|e| err(lineno + 1, format!("invalid slice id `{}`: {e}", ids[0])))?;
            if id != expected_id {
                return Err(err(
                    lineno + 1,
                    format!("slice sections out of order: expected shard {expected_id}, got {id}"),
                ));
            }
            slice_decls.push((len, sum));
        }
        // Everything after the last header line is the concatenated sections,
        // delimited by the declared byte lengths.
        let header_lines = last_header_line + 1;
        let section_bytes: String =
            text.lines().skip(header_lines).map(|l| format!("{l}\n")).collect();
        let mut offset = 0usize;
        let base_text = take_section(&section_bytes, &mut offset, base_len, "base")?.to_string();
        if fnv1a(base_text.as_bytes()) != base_sum {
            return Err(err(0, "checksum mismatch in the base checkpoint section".into()));
        }
        let mut slices = Vec::new();
        for (id, &(len, sum)) in slice_decls.iter().enumerate() {
            let slice_text =
                take_section(&section_bytes, &mut offset, len, &format!("shard {id}"))?;
            if fnv1a(slice_text.as_bytes()) != sum {
                return Err(err(0, format!("checksum mismatch in the slice of shard {id}")));
            }
            slices.push(ShardSlice::from_text(slice_text, id)?);
        }
        if offset != section_bytes.len() {
            return Err(err(
                0,
                format!("{} unexpected trailing bytes after slices", section_bytes.len() - offset),
            ));
        }
        // Structural errors above carry context; a manifest that parses
        // cleanly but fails the whole-document checksum was silently
        // bit-flipped in the header.
        if computed != Some(stored) {
            return Err(err(
                cks_lineno + 1,
                "checksum mismatch: manifest body is corrupted".into(),
            ));
        }
        Ok(ShardManifest { shards, epoch, base_text, slices })
    }
}

/// Parses `base <len> <fnv>` / `slice <id> <len> <fnv>` header bodies: the
/// last two tokens are a decimal byte length and a hex checksum, anything
/// before them is returned verbatim.
fn parse_section_line(
    lineno: usize,
    body: &str,
    want: usize,
) -> Result<(Vec<&str>, usize, u64), StreamError> {
    let err = |reason: String| StreamError::Manifest { line: lineno + 1, reason };
    let tokens: Vec<&str> = body.split_whitespace().collect();
    if tokens.len() != want {
        return Err(err(format!("malformed section line `{body}`")));
    }
    let len = tokens[want - 2]
        .parse::<usize>()
        .map_err(|e| err(format!("invalid section length: {e}")))?;
    let sum = u64::from_str_radix(tokens[want - 1], 16)
        .map_err(|e| err(format!("invalid section checksum `{}`: {e}", tokens[want - 1])))?;
    Ok((tokens[..want - 2].to_vec(), len, sum))
}

/// Carves `len` bytes out of the concatenated sections at `*offset`.
fn take_section<'t>(
    bytes: &'t str,
    offset: &mut usize,
    len: usize,
    what: &str,
) -> Result<&'t str, StreamError> {
    let remaining = bytes.len() - *offset;
    if remaining < len || !bytes.is_char_boundary(*offset + len) {
        return Err(StreamError::Manifest {
            line: 0,
            reason: format!(
                "manifest is truncated: {what} section wants {len} bytes, {remaining} remain"
            ),
        });
    }
    let section = &bytes[*offset..*offset + len];
    *offset += len;
    Ok(section)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhdcd_graph::EdgeEvent;

    fn sample_manifest() -> ShardManifest {
        ShardManifest {
            shards: 2,
            epoch: 3,
            base_text: "qhdcd-service v2\nnot a real checkpoint\n".to_string(),
            slices: vec![
                ShardSlice {
                    id: 0,
                    owned: vec![0, 2],
                    sigma_bits: vec![0x3ff0000000000000, 0x4000000000000000],
                    entries: vec![ShardJournalEntry {
                        batch: 0,
                        pos: 0,
                        batch_len: 1,
                        primary: true,
                        event: EdgeEvent::Add { u: 0, v: 1, weight: 0.5 },
                    }],
                },
                ShardSlice { id: 1, owned: vec![1], sigma_bits: vec![0], entries: Vec::new() },
            ],
        }
    }

    #[test]
    fn manifest_round_trips() {
        let manifest = sample_manifest();
        let text = manifest.to_text();
        let parsed = ShardManifest::from_text(&text).unwrap();
        assert_eq!(parsed, manifest);
    }

    #[test]
    fn corrupted_manifests_are_rejected_with_the_shard_named() {
        let text = sample_manifest().to_text();
        // Global bit flip (in the base section).
        let bad = text.replace("not a real", "not a rEal");
        let err = ShardManifest::from_text(&bad).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // Drop the last slice's bytes entirely.
        let truncated = &text[..text.len() - 10];
        let err = ShardManifest::from_text(truncated).unwrap_err();
        assert!(matches!(err, StreamError::Manifest { .. }));
        // Slice count mismatch: claim 3 shards with 2 slices present.
        let err = ShardManifest::from_text(&text.replace("shards 2", "shards 3")).unwrap_err();
        assert!(matches!(err, StreamError::Manifest { .. }));
    }

    #[test]
    fn hostile_shard_counts_are_rejected_without_allocating() {
        for shards in ["1000000000000000000", "4294967296"] {
            let text = format!(
                "qhdcd-shard-manifest v2\nchecksum 0\nshards {shards}\nepoch 0\nbase 0 0\n"
            );
            let err = ShardManifest::from_text(&text).unwrap_err();
            assert!(matches!(err, StreamError::Manifest { .. }), "shards {shards}: {err}");
        }
    }

    #[test]
    fn slice_internal_validation() {
        let mut manifest = sample_manifest();
        manifest.slices[1].sigma_bits.clear(); // one owned slot, zero sigmas
        let err = ShardManifest::from_text(&manifest.to_text()).unwrap_err();
        assert!(err.to_string().contains("shard 1"), "{err}");
    }
}
