//! Crash-safe write-ahead journal for the pulse library.
//!
//! The persistent library is checkpointed atomically (temp file +
//! rename), but a checkpoint only lands every N jobs — every insert since
//! the last checkpoint dies with the process. The journal closes that
//! window: each live insert appends one checksummed record *before* the
//! in-memory store mutation, the file is fsync'd at batch boundaries, and
//! on start the service replays it after the checksum-validated library
//! load. A successful checkpoint compacts the journal back to empty.
//!
//! ## Record format
//!
//! One JSON object per `\n`-terminated line:
//!
//! ```text
//! {"crc":"<16 hex digits>","rec":{"section":"grape","key":{…},"entry":{…}}}
//! ```
//!
//! `crc` is the FNV-1a checksum of the canonical compact serialization of
//! the `rec` value — the same canonical-bytes trick the library file
//! uses, so re-serializing the parsed record reproduces the checksummed
//! bytes exactly.
//!
//! ## Recovery rules
//!
//! * Every **newline-terminated** record must parse and checksum-match;
//!   any failure is mid-file corruption and replay fails closed
//!   ([`crate::LibraryError::Corrupt`]) applying *nothing* — a journal
//!   that lies about one record cannot be trusted about the rest.
//! * An **unterminated tail** is a torn final append (`kill -9`
//!   mid-write): if the tail happens to be a complete, checksum-valid
//!   record (only its newline was lost) it is applied; otherwise it is
//!   dropped and the file is truncated back to the last good record.
//!   Either way, every record whose append completed survives.

use crate::library::{payload_checksum, CacheKey, PulseEntry, PulseLibrary};
use crate::store::LibraryError;
use epoc_rt::json::Json;
use std::io::{Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Serializes one journal record line (without the trailing newline).
fn record_line(section: &str, key: &CacheKey, entry: &PulseEntry) -> String {
    let rec = Json::obj()
        .push("section", section)
        .push("key", key.to_json_value())
        .push("entry", entry.to_json_value());
    let payload = rec.to_string_compact();
    Json::obj()
        .push("crc", payload_checksum(&payload))
        .push("rec", rec)
        .to_string_compact()
}

/// Append-only journal writer. Thread-safe: appends serialize on an
/// internal lock (the service's serial replay stage is the only caller
/// in practice, but the library observer API is `Send + Sync`).
#[derive(Debug)]
pub struct JournalWriter {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

impl JournalWriter {
    /// Opens (creating if missing) the journal at `path` for appending.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::Io`] when the file cannot be opened.
    pub fn open_append(path: &Path) -> Result<Self, LibraryError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| LibraryError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
        Ok(Self {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn io_err(&self, e: std::io::Error) -> LibraryError {
        LibraryError::Io {
            path: self.path.display().to_string(),
            message: e.to_string(),
        }
    }

    /// Appends one insert record. Durability is deferred to
    /// [`JournalWriter::sync`] (the service syncs per batch, not per
    /// insert).
    ///
    /// Fail point `pulse_lib.journal` simulates a crash mid-append: half
    /// the record's bytes land in the file (no newline) and the call
    /// still reports success — chaos tests then assert replay tolerates
    /// the torn tail.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::Io`] when the write fails.
    pub fn append(
        &self,
        section: &str,
        key: &CacheKey,
        entry: &PulseEntry,
    ) -> Result<(), LibraryError> {
        let line = record_line(section, key, entry);
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        if epoc_rt::faults::fail_point("pulse_lib.journal") {
            // Torn append: the line is ASCII, so any split point is a
            // char boundary.
            let half = &line.as_bytes()[..line.len() / 2];
            file.write_all(half).map_err(|e| self.io_err(e))?;
            epoc_rt::telemetry::counter_add("pulse_lib.journal_torn", 1);
            return Ok(());
        }
        file.write_all(line.as_bytes()).map_err(|e| self.io_err(e))?;
        file.write_all(b"\n").map_err(|e| self.io_err(e))?;
        epoc_rt::telemetry::counter_add("pulse_lib.journal_appends", 1);
        Ok(())
    }

    /// Flushes and fsyncs the journal — the batch-boundary durability
    /// point: every record appended before a successful `sync` survives
    /// `kill -9`.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::Io`] when the flush or fsync fails.
    pub fn sync(&self) -> Result<(), LibraryError> {
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.flush().map_err(|e| self.io_err(e))?;
        file.sync_data().map_err(|e| self.io_err(e))?;
        Ok(())
    }

    /// Empties the journal — called after every successful checkpoint,
    /// whose atomically-renamed library file now covers every journaled
    /// insert.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::Io`] when truncation fails.
    pub fn compact(&self) -> Result<(), LibraryError> {
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.set_len(0).map_err(|e| self.io_err(e))?;
        file.seek(std::io::SeekFrom::Start(0)).map_err(|e| self.io_err(e))?;
        file.sync_data().map_err(|e| self.io_err(e))?;
        epoc_rt::telemetry::counter_add("pulse_lib.journal_compactions", 1);
        Ok(())
    }
}

/// A parsed, validated journal record awaiting application.
struct ParsedRecord {
    section_index: Option<usize>,
    key: CacheKey,
    entry: PulseEntry,
}

/// Parses and validates one record line against the requested sections.
/// `Ok(record)` leaves application to the caller (two-phase replay).
fn parse_record(
    line: &str,
    sections: &[(&str, &PulseLibrary)],
) -> Result<ParsedRecord, String> {
    let doc = Json::parse(line).map_err(|e| format!("unparseable record ({e})"))?;
    let stored = doc
        .get("crc")
        .and_then(Json::as_str)
        .ok_or("record is missing 'crc'")?;
    let rec = doc.get("rec").ok_or("record is missing 'rec'")?;
    // Canonical serializer: re-serializing the parsed record reproduces
    // the exact bytes the checksum was computed over.
    if payload_checksum(&rec.to_string_compact()) != stored {
        return Err("record checksum mismatch".into());
    }
    let section = rec
        .get("section")
        .and_then(Json::as_str)
        .ok_or("record is missing 'section'")?;
    let key = rec
        .get("key")
        .ok_or("record is missing 'key'".to_string())
        .and_then(|k| CacheKey::from_json_value(k).map_err(|e| format!("malformed key: {e}")))?;
    let entry = rec
        .get("entry")
        .ok_or("record is missing 'entry'".to_string())
        .and_then(|e| PulseEntry::from_json_value(e).map_err(|e| format!("malformed entry: {e}")))?;
    let section_index = sections.iter().position(|(name, _)| *name == section);
    if let Some(i) = section_index {
        let lib = sections[i].1;
        if key.policy() != lib.policy() {
            return Err(format!(
                "section '{section}' key policy {:?} does not match the library's {:?}",
                key.policy(),
                lib.policy()
            ));
        }
        if key.hw() != lib.profile_hash() {
            return Err(format!(
                "section '{section}' key hw {:016x} does not match the library's {:016x}",
                key.hw(),
                lib.profile_hash()
            ));
        }
    }
    Ok(ParsedRecord { section_index, key, entry })
}

/// Replays a journal written by [`JournalWriter`] into the given
/// libraries, returning the number of records applied. A missing journal
/// file replays zero records (fresh start). Records naming sections not
/// in `sections` are validated but skipped, mirroring
/// [`crate::load_library_file`].
///
/// Replay is two-phase (parse everything, then apply), so a corrupt
/// journal applies *nothing*. Applied entries bypass the insert observer
/// — replayed inserts are already durable and must not be re-journaled.
///
/// A torn tail (unterminated final line) is tolerated: if it is a
/// complete checksum-valid record it is applied, otherwise the file is
/// truncated back to the last good record.
///
/// # Errors
///
/// * [`LibraryError::Io`] — the journal cannot be read (other than not
///   existing) or the torn-tail truncation fails.
/// * [`LibraryError::Corrupt`] — a newline-terminated record fails to
///   parse, checksum-match, or validate against its target library;
///   nothing is applied. Callers treat this as "start cold": delete or
///   move the journal aside and recompute (always safe).
pub fn replay_journal(
    path: &Path,
    sections: &[(&str, &PulseLibrary)],
) -> Result<usize, LibraryError> {
    let display = path.display().to_string();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => {
            return Err(LibraryError::Io {
                path: display,
                message: e.to_string(),
            })
        }
    };

    // Phase 1: parse and validate. Terminated lines must all be valid;
    // the unterminated tail (if any) may be torn.
    let mut records: Vec<ParsedRecord> = Vec::new();
    let mut good_end = 0usize; // byte offset after the last good record
    let mut offset = 0usize;
    let mut tail_truncate: Option<usize> = None;
    while offset < text.len() {
        let rest = &text[offset..];
        match rest.find('\n') {
            Some(nl) => {
                let line = &rest[..nl];
                if !line.trim().is_empty() {
                    let rec = parse_record(line, sections).map_err(|reason| {
                        LibraryError::Corrupt {
                            path: display.clone(),
                            reason: format!(
                                "journal record at byte {offset}: {reason}"
                            ),
                        }
                    })?;
                    records.push(rec);
                }
                offset += nl + 1;
                good_end = offset;
            }
            None => {
                // Torn tail: apply if it is a complete record that only
                // lost its newline, else schedule truncation.
                match parse_record(rest, sections) {
                    Ok(rec) => records.push(rec),
                    Err(_) => tail_truncate = Some(good_end),
                }
                offset = text.len();
            }
        }
    }

    // Phase 2: truncate the torn tail, then apply every record in order.
    if let Some(end) = tail_truncate {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| LibraryError::Io {
                path: display.clone(),
                message: e.to_string(),
            })?;
        file.set_len(end as u64).map_err(|e| LibraryError::Io {
            path: display.clone(),
            message: e.to_string(),
        })?;
        epoc_rt::telemetry::counter_add("pulse_lib.journal_torn_tails", 1);
    }
    let mut applied = 0usize;
    for rec in records {
        if let Some(i) = rec.section_index {
            sections[i].1.restore(rec.key, rec.entry);
            applied += 1;
        }
    }
    epoc_rt::telemetry::counter_add("pulse_lib.journal_replayed", applied as u64);
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::KeyPolicy;
    use epoc_circuit::Gate;

    fn entry(d: f64) -> PulseEntry {
        PulseEntry {
            duration: d,
            fidelity: 0.999,
            n_slots: d as usize,
            waveform: None,
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("epoc-journal-{}-{name}", std::process::id()))
    }

    #[test]
    fn append_sync_replay_round_trips() {
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        let path = temp_path("roundtrip.jsonl");
        std::fs::remove_file(&path).ok();
        let journal = JournalWriter::open_append(&path).unwrap();
        let h = Gate::H.unitary_matrix();
        let x = Gate::X.unitary_matrix();
        journal.append("grape", &lib.cache_key(&h), &entry(26.0)).unwrap();
        journal.append("grape", &lib.cache_key(&x), &entry(25.0)).unwrap();
        journal.sync().unwrap();
        let restored = PulseLibrary::new(KeyPolicy::PhaseAware);
        assert_eq!(
            replay_journal(&path, &[("grape", &restored)]).unwrap(),
            2
        );
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.peek(&h).map(|e| e.duration), Some(26.0));
        assert_eq!(restored.peek(&x).map(|e| e.duration), Some(25.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_journal_replays_zero() {
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        let path = temp_path("missing.jsonl");
        std::fs::remove_file(&path).ok();
        assert_eq!(replay_journal(&path, &[("grape", &lib)]).unwrap(), 0);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_recovered() {
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        let path = temp_path("torn.jsonl");
        std::fs::remove_file(&path).ok();
        let journal = JournalWriter::open_append(&path).unwrap();
        journal
            .append("grape", &lib.cache_key(&Gate::H.unitary_matrix()), &entry(26.0))
            .unwrap();
        journal.sync().unwrap();
        // Tear: append half of a second record by hand.
        let line = record_line("grape", &lib.cache_key(&Gate::X.unitary_matrix()), &entry(25.0));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&line.as_bytes()[..line.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();
        let restored = PulseLibrary::new(KeyPolicy::PhaseAware);
        assert_eq!(replay_journal(&path, &[("grape", &restored)]).unwrap(), 1);
        assert_eq!(restored.len(), 1);
        // The torn tail was physically truncated away.
        let after = std::fs::read_to_string(&path).unwrap();
        assert!(after.ends_with('\n'));
        assert_eq!(after.lines().count(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn midfile_corruption_fails_closed_applying_nothing() {
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        let path = temp_path("corrupt.jsonl");
        std::fs::remove_file(&path).ok();
        let journal = JournalWriter::open_append(&path).unwrap();
        journal
            .append("grape", &lib.cache_key(&Gate::H.unitary_matrix()), &entry(26.0))
            .unwrap();
        journal
            .append("grape", &lib.cache_key(&Gate::X.unitary_matrix()), &entry(25.0))
            .unwrap();
        journal.sync().unwrap();
        // Flip one byte inside the FIRST record (a terminated line).
        let mut bytes = std::fs::read(&path).unwrap();
        let i = 20;
        bytes[i] = if bytes[i] == b'3' { b'4' } else { b'3' };
        std::fs::write(&path, &bytes).unwrap();
        let restored = PulseLibrary::new(KeyPolicy::PhaseAware);
        let err = replay_journal(&path, &[("grape", &restored)]).unwrap_err();
        assert!(matches!(err, LibraryError::Corrupt { .. }), "{err:?}");
        assert!(restored.is_empty(), "fail closed must apply nothing");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_empties_the_file() {
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        let path = temp_path("compact.jsonl");
        std::fs::remove_file(&path).ok();
        let journal = JournalWriter::open_append(&path).unwrap();
        journal
            .append("grape", &lib.cache_key(&Gate::H.unitary_matrix()), &entry(26.0))
            .unwrap();
        journal.sync().unwrap();
        journal.compact().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        // And appends keep working after a compaction.
        journal
            .append("grape", &lib.cache_key(&Gate::X.unitary_matrix()), &entry(25.0))
            .unwrap();
        journal.sync().unwrap();
        let restored = PulseLibrary::new(KeyPolicy::PhaseAware);
        assert_eq!(replay_journal(&path, &[("grape", &restored)]).unwrap(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_sections_are_skipped_not_corrupt() {
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        let path = temp_path("sections.jsonl");
        std::fs::remove_file(&path).ok();
        let journal = JournalWriter::open_append(&path).unwrap();
        journal
            .append("grape", &lib.cache_key(&Gate::H.unitary_matrix()), &entry(26.0))
            .unwrap();
        journal.sync().unwrap();
        let other = PulseLibrary::new(KeyPolicy::PhaseAware);
        assert_eq!(replay_journal(&path, &[("model", &other)]).unwrap(), 0);
        assert!(other.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn policy_mismatch_fails_closed() {
        let aware = PulseLibrary::new(KeyPolicy::PhaseAware);
        let path = temp_path("policy.jsonl");
        std::fs::remove_file(&path).ok();
        let journal = JournalWriter::open_append(&path).unwrap();
        journal
            .append("grape", &aware.cache_key(&Gate::H.unitary_matrix()), &entry(26.0))
            .unwrap();
        journal.sync().unwrap();
        let sensitive = PulseLibrary::new(KeyPolicy::PhaseSensitive);
        let err = replay_journal(&path, &[("grape", &sensitive)]).unwrap_err();
        assert!(matches!(err, LibraryError::Corrupt { .. }), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn insert_observer_feeds_the_journal() {
        use std::sync::Arc;
        let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
        let path = temp_path("observer.jsonl");
        std::fs::remove_file(&path).ok();
        let journal = Arc::new(JournalWriter::open_append(&path).unwrap());
        let j = Arc::clone(&journal);
        lib.set_insert_observer(Some(Arc::new(move |key, entry| {
            j.append("grape", key, entry).expect("journal append");
        })));
        lib.insert(&Gate::H.unitary_matrix(), entry(26.0));
        journal.sync().unwrap();
        let restored = PulseLibrary::new(KeyPolicy::PhaseAware);
        assert_eq!(replay_journal(&path, &[("grape", &restored)]).unwrap(), 1);
        assert_eq!(
            restored.peek(&Gate::H.unitary_matrix()),
            lib.peek(&Gate::H.unitary_matrix())
        );
        // Bulk restores bypass the observer: replay into `lib` itself
        // must not grow the journal.
        let before = std::fs::metadata(&path).unwrap().len();
        replay_journal(&path, &[("grape", &lib)]).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before);
        std::fs::remove_file(&path).ok();
    }
}
