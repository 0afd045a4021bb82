//! Dataset construction for the figure binaries, honouring the
//! reproduction-scale environment variables.

use dalorex_graph::datasets::{DatasetCatalog, DatasetLabel};
use dalorex_graph::CsrGraph;

/// Default number of powers of two subtracted from each dataset's original
/// size (1024× fewer vertices than the paper).
pub const DEFAULT_SCALE_SHIFT: u32 = 10;

/// Reads the reproduction scale shift from `DALOREX_SCALE_SHIFT`
/// (default [`DEFAULT_SCALE_SHIFT`]; `0` reproduces the paper's sizes).
/// Exits with code 2 on a value that is not a non-negative integer.
pub fn scale_shift() -> u32 {
    env_int_or_exit("DALOREX_SCALE_SHIFT", 0).unwrap_or(DEFAULT_SCALE_SHIFT)
}

/// Reads the largest grid side allowed for sweeps from `DALOREX_MAX_SIDE`
/// (default 16, i.e. up to 256 tiles; the paper sweeps up to 128).
/// Exits with code 2 on a value that is not a positive integer.
pub fn max_grid_side() -> usize {
    env_int_or_exit("DALOREX_MAX_SIDE", 1).unwrap_or(16)
}

/// Reads the integer environment variable `name`: `None` when it is
/// unset, the value when it parses to at least `min`.  Anything else
/// prints one diagnostic and exits with code 2, the figure binaries' rule
/// for inputs that pick what gets measured: a typo must not silently run
/// the default scale.
pub fn env_int_or_exit<T>(name: &str, min: T) -> Option<T>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
{
    let value = match std::env::var(name) {
        Ok(value) => Some(value),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(raw)) => Some(raw.to_string_lossy().into_owned()),
    };
    parse_env_int(name, value.as_deref(), min).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    })
}

/// The testable core of [`env_int_or_exit`]: parses `value` (the
/// variable's contents, `None` when unset) or returns the diagnostic.
fn parse_env_int<T>(name: &str, value: Option<&str>, min: T) -> Result<Option<T>, String>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
{
    let Some(value) = value else {
        return Ok(None);
    };
    match value.parse::<T>() {
        Ok(parsed) if parsed >= min => Ok(Some(parsed)),
        _ => Err(format!(
            "{name}: invalid value {value:?} (want an integer >= {min})"
        )),
    }
}

/// The dataset catalog at the configured reproduction scale.
pub fn catalog() -> DatasetCatalog {
    DatasetCatalog::new().with_scale_shift(scale_shift())
}

/// Builds a labelled dataset at the configured reproduction scale.
///
/// # Panics
///
/// Panics if the generator rejects its configuration, which cannot happen
/// for the catalogued labels.
pub fn build(label: DatasetLabel) -> CsrGraph {
    catalog()
        .build(label)
        .expect("catalogued dataset configurations are valid")
}

/// A scratchpad size, in bytes, large enough for `graph` distributed over
/// `tiles` tiles (with the code/queue reserve the simulator requires),
/// rounded up to a power of two of at least 256 KiB.  The figure binaries
/// use this instead of the 4 MiB default so that small reproduction-scale
/// runs report sensible leakage energy.
pub fn fitting_scratchpad_bytes(graph: &CsrGraph, tiles: usize) -> usize {
    let per_tile_words =
        (2 * graph.num_vertices().div_ceil(tiles) + 2 * graph.num_edges().div_ceil(tiles)) * 4;
    let kernel_state = 16 * graph.num_vertices().div_ceil(tiles);
    let required = per_tile_words + kernel_state + 128 * 1024;
    required.next_power_of_two().max(256 * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_shift_defaults_when_env_is_unset() {
        // The test environment does not set the variable.
        assert!(scale_shift() >= 1 || std::env::var("DALOREX_SCALE_SHIFT").is_ok());
        assert!(max_grid_side() >= 2);
    }

    #[test]
    fn env_ints_parse_or_name_the_bad_value() {
        assert_eq!(
            parse_env_int::<u32>("DALOREX_SCALE_SHIFT", None, 0),
            Ok(None)
        );
        assert_eq!(
            parse_env_int::<u32>("DALOREX_SCALE_SHIFT", Some("0"), 0),
            Ok(Some(0))
        );
        assert_eq!(
            parse_env_int::<usize>("DALOREX_MAX_SIDE", Some("8"), 1),
            Ok(Some(8))
        );
        for (name, value, min) in [
            ("DALOREX_SCALE_SHIFT", "thirteen", 0),
            ("DALOREX_SCALE_SHIFT", "", 0),
            ("DALOREX_SCALE_SHIFT", "-1", 0),
            ("DALOREX_MAX_SIDE", "0", 1),
            ("DALOREX_MAX_SIDE", "8x8", 1),
            ("DALOREX_FIG5_SIDE", " 4", 1),
        ] {
            let err = parse_env_int::<usize>(name, Some(value), min).unwrap_err();
            assert!(
                err.starts_with(name) && err.contains(&format!("{value:?}")),
                "{err}"
            );
        }
    }

    #[test]
    fn builds_reduced_datasets() {
        let graph = build(DatasetLabel::Rmat(16));
        assert!(graph.num_vertices() >= 64);
        assert!(graph.num_edges() > 0);
    }

    #[test]
    fn fitting_scratchpad_is_large_enough_and_power_of_two() {
        let graph = build(DatasetLabel::Amazon);
        let bytes = fitting_scratchpad_bytes(&graph, 16);
        assert!(bytes >= 256 * 1024);
        assert_eq!(bytes.count_ones(), 1);
    }
}
