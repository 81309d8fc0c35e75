//! Hostile input through the scenario parser: arbitrary text, and the
//! committed scenario with bytes overwritten. `parse_scenario` must never
//! panic, and every error must be one `scenario error: ` line — the
//! `spinctl matrix` exit-code contract rides on that. Nothing here runs a
//! campaign: a flipped byte may ask for any population or thread count.

use proptest::collection::vec;
use proptest::prelude::any;
use quicspin_scanner::parse_scenario;

const SCENARIO: &str = include_str!("../../../examples/scenarios/loss_vantage.toml");

/// Bytes drawn from the TOML subset's own alphabet reach deeper into the
/// parser than uniform ones.
const TOML_BYTES: &[u8] = b"[]=\",.#-+eE0123456789 \n\tabcdefghijklmnopqrstuvwxyz_";

fn checked(text: &str) -> Result<(), String> {
    match parse_scenario(text) {
        Ok(_) => Ok(()),
        Err(e) if e.starts_with("scenario error: ") && !e.contains('\n') => Ok(()),
        Err(e) => Err(format!("bad error message {e:?}")),
    }
}

#[test]
fn committed_scenario_parses() {
    assert_eq!(parse_scenario(SCENARIO).unwrap().cells.len(), 4);
}

proptest::proptest! {
    #[test]
    fn arbitrary_text_never_panics(
        bytes in vec(any::<u8>(), 0..300),
        picks in vec(0usize..TOML_BYTES.len(), 0..300),
    ) {
        let toml: Vec<u8> = picks.iter().map(|&i| TOML_BYTES[i]).collect();
        for input in [&bytes, &toml] {
            let text = String::from_utf8_lossy(input);
            let result = checked(&text);
            proptest::prop_assert!(result.is_ok(), "{:?}: {:?}", text, result);
        }
    }

    #[test]
    fn byte_flipped_scenarios_never_panic(
        edits in vec((0.0f64..1.0, any::<u8>(), 0usize..TOML_BYTES.len()), 1..6),
    ) {
        let mut bytes = SCENARIO.as_bytes().to_vec();
        for &(at, byte, pick) in &edits {
            let i = (at * bytes.len() as f64) as usize;
            bytes[i] = if byte & 1 == 0 { byte } else { TOML_BYTES[pick] };
        }
        let text = String::from_utf8_lossy(&bytes);
        let result = checked(&text);
        proptest::prop_assert!(result.is_ok(), "{:?}: {:?}", text, result);
    }

    /// One digit run of the committed scenario replaced by an integer of
    /// any magnitude: a value too large for its field is an error, never
    /// a silent truncation.
    #[test]
    fn large_integers_are_rejected_not_truncated(
        run in 0usize..64,
        value in 0u64..u64::MAX,
        shift in 0u32..64,
    ) {
        let text = replace_digit_run(run, value >> shift);
        let result = checked(&text);
        proptest::prop_assert!(result.is_ok(), "{:?}: {:?}", text, result);
        if let Ok(matrix) = parse_scenario(&text) {
            let p = &matrix.population;
            let week = matrix.cells[0].config.week;
            for kept in [
                format!("toplist_domains = {}", p.toplist_domains),
                format!("zone_domains = {}", p.zone_domains),
                format!("week = {week}"),
            ] {
                proptest::prop_assert!(text.contains(&kept), "{:?} lost {:?}", text, kept);
            }
        }
    }
}

/// The committed scenario with its `n`-th run of ASCII digits replaced
/// by `value`.
fn replace_digit_run(n: usize, value: u64) -> String {
    let mut out = String::new();
    let mut runs = 0;
    let mut in_run = false;
    for c in SCENARIO.chars() {
        let digit = c.is_ascii_digit();
        if digit && !in_run {
            runs += 1;
            if runs == n + 1 {
                out.push_str(&value.to_string());
            }
        }
        in_run = digit;
        if !(digit && runs == n + 1) {
            out.push(c);
        }
    }
    out
}
