//! Fixture: the GX4xx determinism tier — time-derived seeds and
//! hash-ordered iteration feeding recorded output.

use std::collections::HashMap;

pub fn gx402() -> u64 {
    let seed = std::time::SystemTime::now() // GX402
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or_default();
    seed
}

pub fn gx403(pairs: &[(String, f64)]) -> Vec<String> {
    let m: HashMap<String, f64> = pairs.iter().cloned().collect();
    let mut out = Vec::new();
    for k in m.keys() {
        // GX403
        out.push(k.clone());
    }
    out
}

pub fn clean(pairs: &[(String, f64)], seed: u64) -> u64 {
    let sorted: std::collections::BTreeMap<_, _> = pairs.iter().cloned().collect();
    seed.wrapping_add(sorted.len() as u64)
}
