//! Versioned, bit-exact serialization of [`KernelProfile`].
//!
//! The persistent profile cache stores profiles through the shared
//! `gwc-obs` JSON layer rather than a second hand-rolled format. The one
//! subtlety is floating point: a cached profile must be **bit-identical**
//! to a freshly computed one (the same contract the parallel runtime
//! honours against the serial one), and a decimal text round-trip does
//! not guarantee that for every `f64`. Characteristic values therefore
//! serialize as their raw IEEE-754 bit patterns (`f64::to_bits`, a
//! [`Json::UInt`], which round-trips at full u64 precision); every raw
//! counter is a `u64` already.

use gwc_obs::json::Json;
use gwc_simt::trace::LaunchStats;

use crate::profile::{KernelProfile, RawCounts};
use crate::schema;

/// Version of the serialized profile layout. Bump on any change to the
/// field set or encoding below; readers reject other versions (and the
/// cache then recomputes).
pub const PROFILE_FORMAT_VERSION: u32 = 1;

fn uint_field(name: &str, v: u64) -> (String, Json) {
    (name.to_string(), Json::UInt(v))
}

fn raw_to_json(raw: &RawCounts) -> Json {
    Json::Obj(vec![
        uint_field("warp_instrs", raw.warp_instrs),
        uint_field("thread_instrs", raw.thread_instrs),
        uint_field("global_accesses", raw.global_accesses),
        uint_field("global_transactions", raw.global_transactions),
        uint_field("shared_accesses", raw.shared_accesses),
        uint_field("shared_serialized", raw.shared_serialized),
        uint_field("sfu_thread_instrs", raw.sfu_thread_instrs),
        uint_field("barriers", raw.barriers),
        uint_field("atomic_thread_ops", raw.atomic_thread_ops),
        uint_field("total_threads", raw.total_threads),
        uint_field("threads_per_block", raw.threads_per_block),
        uint_field("blocks", raw.blocks),
        uint_field("footprint_lines", raw.footprint_lines),
    ])
}

fn stats_to_json(stats: &LaunchStats) -> Json {
    Json::Obj(vec![
        uint_field("warp_instrs", stats.warp_instrs),
        uint_field("thread_instrs", stats.thread_instrs),
        uint_field("blocks", stats.blocks),
        uint_field("warps", stats.warps),
        uint_field("barriers", stats.barriers),
    ])
}

/// Serializes one profile. The characteristic vector is emitted as raw
/// `f64` bit patterns under `values_bits`.
pub fn profile_to_json(profile: &KernelProfile) -> Json {
    Json::Obj(vec![
        ("name".to_string(), Json::Str(profile.name().to_string())),
        (
            "values_bits".to_string(),
            Json::Arr(
                profile
                    .values()
                    .iter()
                    .map(|v| Json::UInt(v.to_bits()))
                    .collect(),
            ),
        ),
        ("raw".to_string(), raw_to_json(profile.raw())),
        ("stats".to_string(), stats_to_json(&profile.stats())),
    ])
}

fn get_u64(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key)?.as_u64()
}

fn raw_from_json(doc: &Json) -> Option<RawCounts> {
    Some(RawCounts {
        warp_instrs: get_u64(doc, "warp_instrs")?,
        thread_instrs: get_u64(doc, "thread_instrs")?,
        global_accesses: get_u64(doc, "global_accesses")?,
        global_transactions: get_u64(doc, "global_transactions")?,
        shared_accesses: get_u64(doc, "shared_accesses")?,
        shared_serialized: get_u64(doc, "shared_serialized")?,
        sfu_thread_instrs: get_u64(doc, "sfu_thread_instrs")?,
        barriers: get_u64(doc, "barriers")?,
        atomic_thread_ops: get_u64(doc, "atomic_thread_ops")?,
        total_threads: get_u64(doc, "total_threads")?,
        threads_per_block: get_u64(doc, "threads_per_block")?,
        blocks: get_u64(doc, "blocks")?,
        footprint_lines: get_u64(doc, "footprint_lines")?,
    })
}

fn stats_from_json(doc: &Json) -> Option<LaunchStats> {
    Some(LaunchStats {
        warp_instrs: get_u64(doc, "warp_instrs")?,
        thread_instrs: get_u64(doc, "thread_instrs")?,
        blocks: get_u64(doc, "blocks")?,
        warps: get_u64(doc, "warps")?,
        barriers: get_u64(doc, "barriers")?,
        ..LaunchStats::default()
    })
}

/// Deserializes one profile. Returns `None` — never panics — on any
/// missing field, type mismatch, or a characteristic vector whose length
/// disagrees with the current schema, so corrupt cache entries degrade
/// to a recompute.
pub fn profile_from_json(doc: &Json) -> Option<KernelProfile> {
    let name = doc.get("name")?.as_str()?;
    let bits = doc.get("values_bits")?.as_arr()?;
    if bits.len() != schema::len() {
        return None;
    }
    let values: Vec<f64> = bits
        .iter()
        .map(|b| b.as_u64().map(f64::from_bits))
        .collect::<Option<_>>()?;
    let raw = raw_from_json(doc.get("raw")?)?;
    let stats = stats_from_json(doc.get("stats")?)?;
    Some(KernelProfile::new(name, values, raw, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> KernelProfile {
        let mut values = vec![0.0; schema::len()];
        // Values that a decimal text round-trip can mangle: a denormal,
        // a negative zero, and an irrational fraction.
        values[0] = f64::from_bits(1);
        values[1] = -0.0;
        values[2] = 1.0 / 3.0;
        values[3] = 0.123_456_789_012_345_67;
        KernelProfile::new(
            "k",
            values,
            RawCounts {
                warp_instrs: u64::MAX,
                thread_instrs: 42,
                ..RawCounts::default()
            },
            LaunchStats {
                warp_instrs: u64::MAX,
                thread_instrs: 1,
                blocks: 2,
                warps: 3,
                barriers: 4,
                ..LaunchStats::default()
            },
        )
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let p = sample();
        let text = profile_to_json(&p).render();
        let back = profile_from_json(&gwc_obs::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.name(), p.name());
        assert_eq!(back.raw(), p.raw());
        assert_eq!(back.stats(), p.stats());
        for (a, b) in p.values().iter().zip(back.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn malformed_documents_return_none() {
        let good = profile_to_json(&sample());
        // Wrong vector length.
        let mut short = good.clone();
        if let Json::Obj(fields) = &mut short {
            for (k, v) in fields.iter_mut() {
                if k == "values_bits" {
                    *v = Json::Arr(vec![Json::UInt(0)]);
                }
            }
        }
        assert!(profile_from_json(&short).is_none());
        // Missing counters object.
        let Json::Obj(mut fields) = good else {
            unreachable!()
        };
        fields.retain(|(k, _)| k != "raw");
        assert!(profile_from_json(&Json::Obj(fields)).is_none());
        // Not an object at all.
        assert!(profile_from_json(&Json::Null).is_none());
    }
}
