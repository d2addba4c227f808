//! `vtsim chaos --seed` takes the seed in the `0x` hex form its report
//! prints as well as in decimal, and still refuses garbage with exit 2.

use std::process::{Command, Output};

fn chaos(seed: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vtsim"))
        .args(["chaos", "--quick", "on", "--cells", "2", "--seed", seed])
        .output()
        .unwrap_or_else(|e| panic!("vtsim did not start: {e}"))
}

#[test]
fn chaos_seed_accepts_the_printed_hex_form() {
    let hex = chaos("0xc4a0");
    assert!(hex.status.success(), "{hex:?}");
    let report = String::from_utf8_lossy(&hex.stdout);
    assert!(report.contains("seed 0xc4a0,"), "{report}");
    for same in ["50336", "0X0000C4A0"] {
        let out = chaos(same);
        assert!(out.status.success(), "{same}: {out:?}");
        assert_eq!(out.stdout, hex.stdout, "{same}");
    }
    for bad in [
        "0xc4g0",
        "c4a0",
        "0x",
        "-1",
        "0x1_0",
        "18446744073709551616",
    ] {
        let out = chaos(bad);
        assert_eq!(out.status.code(), Some(2), "{bad}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error: invalid value for --seed"), "{err}");
        assert!(out.stdout.is_empty(), "{bad}");
    }
}
