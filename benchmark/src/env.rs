//! Host and environment pinning.
//!
//! The program reads a few environment variables that change what it
//! computes or how (SIMD level, observability, worker counts). The
//! benchmark refuses to run under any of them, so an inherited variable
//! cannot silently change the program being measured; every knob it
//! needs it sets through the program's public setters instead.

/// Variables that change the measured program.
pub const PINNED_VARS: &[&str] = &[
    "WIVI_SIMD_LEVEL",
    "WIVI_NO_SIMD",
    "WIVI_OBS",
    "WIVI_SERVE_WORKERS",
    "WIVI_FOCUS_THREADS",
];

/// The pinned variables present in `vars` (name, value).
pub fn inherited(vars: impl Iterator<Item = (String, String)>) -> Vec<(String, String)> {
    vars.filter(|(k, _)| PINNED_VARS.contains(&k.as_str()))
        .collect()
}

/// Host facts recorded with every result.
pub fn host_notes() -> Vec<String> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        format!("host: nproc={cores}"),
        format!("host: simd_level={}", wivi_num::simd::level().name()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_pinned_variables_are_reported() {
        let vars = [
            ("PATH", "/bin"),
            ("WIVI_OBS", "1"),
            ("WIVI_OBS_RING", "64"),
            ("WIVI_FOCUS_THREADS", "4"),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v.to_owned()));
        let got = inherited(vars);
        assert_eq!(
            got,
            vec![
                ("WIVI_OBS".to_owned(), "1".to_owned()),
                ("WIVI_FOCUS_THREADS".to_owned(), "4".to_owned())
            ]
        );
    }
}
