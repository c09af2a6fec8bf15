//! The versioned on-disk profile format.
//!
//! Profiles are stored as a line-oriented plain-text format so they are
//! diffable, greppable and stable across toolchains:
//!
//! ```text
//! kingsguard-site-profile 2
//! workload lusearch
//! collector KG-N
//! site-map-hash 00c3e1f29b04d877
//! sites 3
//! site 1 objects 120 bytes 7680 survived-objects 30 survived-bytes 1920 post-writes 400 large 0
//! site 2 objects 8 bytes 131072 survived-objects 8 survived-bytes 131072 post-writes 0 large 8
//! site 7 objects 50 bytes 3200 survived-objects 0 survived-bytes 0 post-writes 0 large 0
//! ```
//!
//! The optional `site-map-hash` line records a hash of the workload's site
//! map at profiling time; version-1 files (without it) still parse. When a
//! later run's site map hashes differently the profile has *drifted* across
//! program versions — [`site_map_drift`] reports it so consumers can log
//! and fall back per-site instead of rejecting the profile outright.
//!
//! The parser refuses unknown versions, truncated files and malformed
//! records; [`profile_to_string`] and [`parse_profile`] round-trip exactly.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use crate::profiler::{SiteProfile, SiteRecord};
use crate::site::SiteId;

/// First token of the header line.
pub const FORMAT_MAGIC: &str = "kingsguard-site-profile";

/// Current format version (adds the optional `site-map-hash` header line).
/// Bump when the record layout changes; the parser accepts every version
/// from [`FORMAT_MIN_VERSION`] up to this one and rejects the rest.
pub const FORMAT_VERSION: u32 = 2;

/// Oldest format version this build still reads (version 1 lacks the
/// `site-map-hash` line).
pub const FORMAT_MIN_VERSION: u32 = 1;

/// Everything that can go wrong reading a profile.
#[derive(Debug)]
pub enum ProfileError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The header line is missing or malformed.
    BadHeader(String),
    /// The file declares a version this build does not understand.
    UnsupportedVersion(u32),
    /// A line could not be parsed.
    BadRecord { line: usize, reason: String },
    /// The `sites` count does not match the number of records.
    CountMismatch { declared: usize, found: usize },
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Io(err) => write!(f, "profile I/O error: {err}"),
            ProfileError::BadHeader(line) => write!(f, "bad profile header: {line:?}"),
            ProfileError::UnsupportedVersion(version) => {
                write!(
                    f,
                    "unsupported profile version {version} (this build reads versions \
                     {FORMAT_MIN_VERSION}..={FORMAT_VERSION})"
                )
            }
            ProfileError::BadRecord { line, reason } => {
                write!(f, "bad profile record on line {line}: {reason}")
            }
            ProfileError::CountMismatch { declared, found } => {
                write!(f, "profile declares {declared} sites but contains {found}")
            }
        }
    }
}

impl std::error::Error for ProfileError {}

impl From<io::Error> for ProfileError {
    fn from(err: io::Error) -> Self {
        ProfileError::Io(err)
    }
}

/// Serializes a profile to the on-disk text format.
pub fn profile_to_string(profile: &SiteProfile) -> String {
    let mut out = String::new();
    out.push_str(&format!("{FORMAT_MAGIC} {FORMAT_VERSION}\n"));
    out.push_str(&format!("workload {}\n", sanitize(&profile.workload)));
    out.push_str(&format!("collector {}\n", sanitize(&profile.collector)));
    if let Some(hash) = profile.site_map_hash {
        out.push_str(&format!("site-map-hash {hash:016x}\n"));
    }
    out.push_str(&format!("sites {}\n", profile.sites.len()));
    for (SiteId(id), record) in profile.sites.iter() {
        out.push_str(&format!(
            "site {id} objects {} bytes {} survived-objects {} survived-bytes {} post-writes {} large {}\n",
            record.objects,
            record.bytes,
            record.survived_objects,
            record.survived_bytes,
            record.post_nursery_writes,
            record.large_objects,
        ));
    }
    out
}

/// Parses a profile from the on-disk text format.
pub fn parse_profile(text: &str) -> Result<SiteProfile, ProfileError> {
    let mut lines = text.lines().enumerate();

    let (_, header) = lines
        .next()
        .ok_or_else(|| ProfileError::BadHeader(String::new()))?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some(FORMAT_MAGIC) {
        return Err(ProfileError::BadHeader(header.to_string()));
    }
    let version: u32 = parts
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ProfileError::BadHeader(header.to_string()))?;
    if !(FORMAT_MIN_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(ProfileError::UnsupportedVersion(version));
    }

    let workload = parse_field(&mut lines, "workload")?;
    let collector = parse_field(&mut lines, "collector")?;
    // The site-map-hash line is optional (absent in version-1 files and in
    // profiles from harnesses that do not know their site map).
    let (_, line) = lines
        .next()
        .ok_or_else(|| ProfileError::BadHeader("missing sites line".to_string()))?;
    let (site_map_hash, sites_line) = match line.strip_prefix("site-map-hash ") {
        Some(value) => {
            let hash = u64::from_str_radix(value.trim(), 16).map_err(|_| {
                ProfileError::BadHeader(format!("site-map-hash value {value:?} is not hexadecimal"))
            })?;
            let (_, next) = lines
                .next()
                .ok_or_else(|| ProfileError::BadHeader("missing sites line".to_string()))?;
            (Some(hash), next)
        }
        None => (None, line),
    };
    let declared: usize = match sites_line.split_once(' ') {
        Some(("sites", value)) => value
            .trim()
            .parse()
            .map_err(|_| ProfileError::BadHeader("sites count is not a number".to_string()))?,
        _ => {
            return Err(ProfileError::BadHeader(format!(
                "expected \"sites ...\", found {sites_line:?}"
            )))
        }
    };

    let mut profile = SiteProfile {
        workload,
        collector,
        site_map_hash,
        sites: Default::default(),
    };
    for (index, line) in lines {
        let line_no = index + 1;
        if line.trim().is_empty() {
            continue;
        }
        let (id, record) = parse_site_line(line).map_err(|reason| ProfileError::BadRecord {
            line: line_no,
            reason,
        })?;
        if profile.sites.insert(id, record).is_some() {
            return Err(ProfileError::BadRecord {
                line: line_no,
                reason: format!("duplicate site {}", id.raw()),
            });
        }
    }
    if profile.sites.len() != declared {
        return Err(ProfileError::CountMismatch {
            declared,
            found: profile.sites.len(),
        });
    }
    Ok(profile)
}

/// Outcome of comparing a loaded profile's site-map hash against the site
/// map of the run about to consume it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SiteMapDrift {
    /// The profile was collected under the same site map.
    Match,
    /// The profile predates site-map hashing; nothing can be checked.
    Unhashed,
    /// The site map changed since the profile was collected. The advice is
    /// still applied per-site — sites that kept their ids keep their
    /// advice, everything else uses the table's default placement — but
    /// consumers should log the drift.
    Drifted {
        /// The hash stored in the profile.
        stored: u64,
        /// The consuming run's site-map hash.
        current: u64,
    },
}

/// Compares `profile`'s recorded site-map hash against `current`.
pub fn site_map_drift(profile: &SiteProfile, current: u64) -> SiteMapDrift {
    match profile.site_map_hash {
        None => SiteMapDrift::Unhashed,
        Some(stored) if stored == current => SiteMapDrift::Match,
        Some(stored) => SiteMapDrift::Drifted { stored, current },
    }
}

/// Writes a profile to `path`, creating parent directories as needed.
pub fn save_profile(profile: &SiteProfile, path: &Path) -> Result<(), ProfileError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    fs::write(path, profile_to_string(profile))?;
    Ok(())
}

/// Reads a profile back from `path`.
pub fn load_profile(path: &Path) -> Result<SiteProfile, ProfileError> {
    let text = fs::read_to_string(path)?;
    parse_profile(&text)
}

fn sanitize(value: &str) -> String {
    // Field values live on one line; whitespace inside them becomes '-'.
    let cleaned: String = value
        .chars()
        .map(|c| if c.is_whitespace() { '-' } else { c })
        .collect();
    if cleaned.is_empty() {
        "-".to_string()
    } else {
        cleaned
    }
}

fn parse_field<'a>(
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
    key: &str,
) -> Result<String, ProfileError> {
    let (_, line) = lines
        .next()
        .ok_or_else(|| ProfileError::BadHeader(format!("missing {key} line")))?;
    match line.split_once(' ') {
        Some((found, value)) if found == key => Ok(value.trim().to_string()),
        _ => Err(ProfileError::BadHeader(format!(
            "expected \"{key} ...\", found {line:?}"
        ))),
    }
}

fn parse_site_line(line: &str) -> Result<(SiteId, SiteRecord), String> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    const KEYS: [&str; 7] = [
        "site",
        "objects",
        "bytes",
        "survived-objects",
        "survived-bytes",
        "post-writes",
        "large",
    ];
    if tokens.len() != KEYS.len() * 2 {
        return Err(format!(
            "expected {} tokens, found {}",
            KEYS.len() * 2,
            tokens.len()
        ));
    }
    let mut values = [0u64; 7];
    for (i, pair) in tokens.chunks(2).enumerate() {
        let (key, value) = (pair[0], pair[1]);
        if key != KEYS[i] {
            return Err(format!("expected key {:?}, found {key:?}", KEYS[i]));
        }
        values[i] = value
            .parse()
            .map_err(|_| format!("{key} value {value:?} is not a number"))?;
    }
    let id = u32::try_from(values[0]).ok().filter(|&id| id < SiteId::LIMIT);
    let id = id.ok_or_else(|| format!("site id {} out of range", values[0]))?;
    Ok((
        SiteId(id),
        SiteRecord {
            objects: values[1],
            bytes: values[2],
            survived_objects: values[3],
            survived_bytes: values[4],
            post_nursery_writes: values[5],
            large_objects: values[6],
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::SiteProfiler;

    fn sample_profile() -> SiteProfile {
        let mut profiler = SiteProfiler::new("lusearch", "KG-N");
        for _ in 0..120 {
            profiler.record_alloc(SiteId(1), 64, false);
        }
        for _ in 0..30 {
            profiler.record_nursery_survivor(SiteId(1), 64);
        }
        for _ in 0..400 {
            profiler.record_post_nursery_write(SiteId(1));
        }
        for _ in 0..8 {
            profiler.record_alloc(SiteId(2), 16 * 1024, true);
            profiler.record_nursery_survivor(SiteId(2), 16 * 1024);
        }
        for _ in 0..50 {
            profiler.record_alloc(SiteId(7), 64, false);
        }
        profiler.finish()
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let profile = sample_profile();
        let text = profile_to_string(&profile);
        let parsed = parse_profile(&text).unwrap();
        assert_eq!(parsed, profile);
        // And a second round trip is byte-identical.
        assert_eq!(profile_to_string(&parsed), text);
    }

    #[test]
    fn hostile_inputs_error_without_panicking() {
        let text = profile_to_string(&sample_profile());
        let parse_survives = |input: String| {
            std::panic::catch_unwind(move || {
                let _ = parse_profile(&input);
            })
            .is_ok()
        };
        // Every prefix truncation parses without panicking; failures carry a
        // message. A cut that loses a whole record trips the declared-count
        // check; only a cut inside the final numeric token (a text format
        // has no checksum) can still parse, and then to fewer/altered sites
        // of a well-formed profile — never to garbage.
        let full = parse_profile(&text).unwrap();
        for cut in 0..text.len() {
            let prefix = text[..cut].to_string();
            assert!(parse_survives(prefix.clone()), "panic at truncation {cut}");
            match parse_profile(&prefix) {
                Err(err) => assert!(!err.to_string().is_empty(), "cut {cut}: empty error message"),
                Ok(parsed) => assert!(
                    parsed.sites.len() <= full.sites.len(),
                    "cut {cut}: truncation invented sites"
                ),
            }
            if prefix.find('\n').is_none() {
                // A truncated header can never be a valid profile.
                assert!(
                    parse_profile(&prefix).is_err(),
                    "cut {cut}: truncated header accepted"
                );
            }
        }
        // Every single-bit flip that stays valid UTF-8 parses without
        // panicking (a flip inside a numeric value may legitimately still
        // parse).
        let bytes = text.as_bytes();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[pos] ^= 1 << bit;
                if let Ok(corrupt) = String::from_utf8(flipped) {
                    assert!(parse_survives(corrupt), "panic at flip {pos}/{bit}");
                }
            }
        }
        // Missing files surface as descriptive I/O errors.
        let missing = load_profile(Path::new("/nonexistent/run.kgprof"));
        assert!(matches!(missing, Err(ProfileError::Io(_))));
    }

    #[test]
    fn round_trip_through_disk() {
        let profile = sample_profile();
        let dir = std::env::temp_dir().join("kingsguard-advice-test");
        let path = dir.join("lusearch.kgprof");
        save_profile(&profile, &path).unwrap();
        let loaded = load_profile(&path).unwrap();
        assert_eq!(loaded, profile);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_profile_round_trips() {
        let profile = SiteProfiler::new("empty", "KG-N").finish();
        let parsed = parse_profile(&profile_to_string(&profile)).unwrap();
        assert_eq!(parsed, profile);
        assert_eq!(parsed.sites.len(), 0);
    }

    #[test]
    fn site_map_hash_round_trips() {
        let mut profile = sample_profile();
        profile.site_map_hash = Some(0x00c3_e1f2_9b04_d877);
        let text = profile_to_string(&profile);
        assert!(text.contains("site-map-hash 00c3e1f29b04d877"));
        let parsed = parse_profile(&text).unwrap();
        assert_eq!(parsed, profile);
        assert_eq!(parsed.site_map_hash, Some(0x00c3_e1f2_9b04_d877));
        // And through disk.
        let dir = std::env::temp_dir().join(format!("kingsguard-advice-hash-{}", std::process::id()));
        let path = dir.join("hashed.kgprof");
        save_profile(&profile, &path).unwrap();
        assert_eq!(load_profile(&path).unwrap(), profile);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_1_files_without_a_hash_still_parse() {
        let text = "kingsguard-site-profile 1\nworkload old\ncollector KG-N\nsites 1\n\
                    site 1 objects 1 bytes 64 survived-objects 0 survived-bytes 0 post-writes 0 large 0\n";
        let parsed = parse_profile(text).unwrap();
        assert_eq!(parsed.site_map_hash, None);
        assert_eq!(parsed.sites.len(), 1);
        assert_eq!(site_map_drift(&parsed, 42), SiteMapDrift::Unhashed);
    }

    #[test]
    fn drift_is_reported_but_not_fatal() {
        let mut profile = sample_profile();
        profile.site_map_hash = Some(7);
        assert_eq!(site_map_drift(&profile, 7), SiteMapDrift::Match);
        let drift = site_map_drift(&profile, 8);
        assert_eq!(
            drift,
            SiteMapDrift::Drifted {
                stored: 7,
                current: 8
            }
        );
        // The drifted profile still parses and its sites remain usable.
        let reparsed = parse_profile(&profile_to_string(&profile)).unwrap();
        assert_eq!(reparsed.sites.len(), profile.sites.len());
    }

    #[test]
    fn malformed_site_map_hash_is_rejected() {
        let text = "kingsguard-site-profile 2\nworkload x\ncollector y\nsite-map-hash zz\nsites 0\n";
        assert!(matches!(parse_profile(text), Err(ProfileError::BadHeader(_))));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let text = "kingsguard-site-profile 99\nworkload x\ncollector y\nsites 0\n";
        match parse_profile(text) {
            Err(ProfileError::UnsupportedVersion(99)) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(matches!(parse_profile(""), Err(ProfileError::BadHeader(_))));
        assert!(matches!(
            parse_profile("not-a-profile 1\n"),
            Err(ProfileError::BadHeader(_))
        ));
        let missing_fields = "kingsguard-site-profile 1\nworkload x\n";
        assert!(matches!(
            parse_profile(missing_fields),
            Err(ProfileError::BadHeader(_))
        ));
        let bad_count = "kingsguard-site-profile 1\nworkload x\ncollector y\nsites 2\n\
                         site 1 objects 1 bytes 64 survived-objects 0 survived-bytes 0 post-writes 0 large 0\n";
        assert!(matches!(
            parse_profile(bad_count),
            Err(ProfileError::CountMismatch {
                declared: 2,
                found: 1
            })
        ));
        let bad_record = "kingsguard-site-profile 1\nworkload x\ncollector y\nsites 1\nsite 1 objects nan\n";
        assert!(matches!(
            parse_profile(bad_record),
            Err(ProfileError::BadRecord { .. })
        ));
        let dup = "kingsguard-site-profile 1\nworkload x\ncollector y\nsites 1\n\
                   site 1 objects 1 bytes 64 survived-objects 0 survived-bytes 0 post-writes 0 large 0\n\
                   site 1 objects 1 bytes 64 survived-objects 0 survived-bytes 0 post-writes 0 large 0\n";
        assert!(matches!(parse_profile(dup), Err(ProfileError::BadRecord { .. })));
    }

    #[test]
    fn a_site_id_at_the_limit_is_rejected() {
        let file = |site: u32| {
            format!(
                "kingsguard-site-profile 2\nworkload x\ncollector y\nsites 1\n\
                 site {site} objects 1 bytes 64 survived-objects 0 survived-bytes 0 post-writes 0 large 0\n"
            )
        };
        let last = parse_profile(&file(SiteId::LIMIT - 1)).unwrap();
        assert_eq!(last.site(SiteId(SiteId::LIMIT - 1)).unwrap().objects, 1);
        match parse_profile(&file(SiteId::LIMIT)) {
            Err(ProfileError::BadRecord { line: 5, reason }) => {
                assert_eq!(reason, "site id 16384 out of range")
            }
            other => panic!("expected BadRecord, got {other:?}"),
        }
    }

    #[test]
    fn workload_names_with_spaces_survive() {
        let mut profiler = SiteProfiler::new("my workload", "KG N");
        profiler.record_alloc(SiteId(1), 64, false);
        let profile = profiler.finish();
        let parsed = parse_profile(&profile_to_string(&profile)).unwrap();
        assert_eq!(parsed.workload, "my-workload");
        assert_eq!(parsed.collector, "KG-N");
    }

    #[test]
    fn error_messages_are_descriptive() {
        let err = parse_profile("kingsguard-site-profile 99\n").unwrap_err();
        assert!(err.to_string().contains("version 99"));
        let err = parse_profile("bogus\n").unwrap_err();
        assert!(err.to_string().contains("header"));
    }
}
