//! The flag values the workload drivers share. Each reader takes the
//! argument that followed a flag (`None` when the flag came last) and
//! returns its value or the message for a usage error; the driver's `main`
//! prints the message and exits with status 2.

use std::str::FromStr;

use rucx_fault::FaultSpec;

/// Any integer the type can hold (e.g. `--seed 0`).
pub fn number<T: FromStr>(flag: &str, value: Option<impl AsRef<str>>) -> Result<T, String> {
    value
        .and_then(|v| v.as_ref().parse().ok())
        .ok_or_else(|| format!("{flag} needs an integer"))
}

/// An integer of at least 1 (shard counts, task counts, sizes).
pub fn positive<T>(flag: &str, value: Option<impl AsRef<str>>) -> Result<T, String>
where
    T: FromStr + PartialOrd + From<u8>,
{
    value
        .and_then(|v| v.as_ref().parse().ok())
        .filter(|v| *v >= T::from(1))
        .ok_or_else(|| format!("{flag} needs a positive integer"))
}

/// A `--fault-spec` (grammar in [`FaultSpec::parse`]).
pub fn fault_spec(value: Option<impl AsRef<str>>) -> Result<FaultSpec, String> {
    let spec =
        value.ok_or_else(|| "--fault-spec needs a value (e.g. seed=7,drop=0.01)".to_string())?;
    FaultSpec::parse(spec.as_ref()).map_err(|e| format!("bad --fault-spec: {e}"))
}

/// An `--algo` name: `auto` is `None` (the engine picks per size), any
/// other name must be one `parse` knows.
pub fn algo<A>(
    value: Option<impl AsRef<str>>,
    parse: impl Fn(&str) -> Option<A>,
) -> Result<Option<A>, String> {
    match value.as_ref().map(AsRef::as_ref) {
        Some("auto") => Ok(None),
        Some(name) => parse(name)
            .map(Some)
            .ok_or_else(|| format!("unknown --algo {name}")),
        None => Err("--algo needs a name".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_rejects_zero_negative_garbage_and_missing() {
        assert_eq!(positive::<usize>("--shards", Some("8")), Ok(8));
        for bad in [Some("0"), Some("-1"), Some("two"), Some(""), None] {
            assert_eq!(
                positive::<usize>("--shards", bad),
                Err("--shards needs a positive integer".to_string()),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn number_accepts_zero_but_not_garbage() {
        assert_eq!(number::<u64>("--seed", Some("0")), Ok(0));
        assert!(number::<u64>("--seed", Some("-1")).is_err());
        assert!(number::<u64>("--seed", Some("x")).is_err());
        assert!(number::<u64>("--seed", None::<&str>).is_err());
    }

    #[test]
    fn bad_fault_spec_reports_its_parse_error() {
        assert!(fault_spec(Some("seed=7,drop=0.01")).is_ok());
        let parse_err = FaultSpec::parse("drop=2").unwrap_err();
        assert_eq!(
            fault_spec(Some("drop=2")).unwrap_err(),
            format!("bad --fault-spec: {parse_err}")
        );
        assert!(fault_spec(None::<&str>).is_err());
    }

    #[test]
    fn algo_maps_auto_to_none_and_rejects_unknown_names() {
        let parse = |s: &str| (s == "ring").then_some(7);
        assert_eq!(algo(Some("auto"), parse), Ok(None));
        assert_eq!(algo(Some("ring"), parse), Ok(Some(7)));
        assert!(algo(Some("best"), parse).is_err());
        assert!(algo(None::<&str>, parse).is_err());
    }
}
