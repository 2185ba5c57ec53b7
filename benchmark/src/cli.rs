//! Command-line parsing: `--workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`, every flag required, nothing else accepted.

use crate::workloads::Workload;

/// Parsed and checked arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Parse the argument list (without the program name).
pub fn parse<I, S>(args: I) -> Result<Args, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_ref().to_string();
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_ref()
            .to_string();
        let slot_taken = match flag.as_str() {
            "--workload" => workload
                .replace(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
                .is_some(),
            "--seed" => seed
                .replace(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed must be a whole number, got {value:?}"))?,
                )
                .is_some(),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|_| format!("--seconds must be a whole number, got {value:?}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds must be in 1..=60, got {s}"));
                }
                seconds.replace(s).is_some()
            }
            "--trace" => trace
                .replace(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
                .is_some(),
            _ => return Err(format!("unknown argument {flag:?}")),
        };
        if slot_taken {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_argument_order() {
        let a = parse([
            "--workload",
            "mux_lossy_2k",
            "--seed",
            "17",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: Workload::MuxLossy2k,
                seed: 17,
                seconds: 10,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_missing_unknown_and_malformed_flags() {
        let ok = [
            "--workload",
            "des_scale_1056",
            "--seed",
            "1",
            "--seconds",
            "5",
        ];
        assert!(parse(ok).unwrap_err().contains("--trace"));
        let mut bad = ok.to_vec();
        bad.extend(["--trace", "2"]);
        assert!(parse(&bad).is_err());
        let mut dup = ok.to_vec();
        dup.extend(["--trace", "0", "--seed", "3"]);
        assert!(parse(&dup).unwrap_err().contains("twice"));
        assert!(parse(["--workload", "nope", "--seed", "1"]).is_err());
        assert!(parse(["--seed", "-1"]).is_err());
        assert!(parse(["--seconds", "0"]).is_err());
        assert!(parse(["--bogus", "1"]).is_err());
        assert!(parse(["--seed"]).is_err());
    }
}
