//! `df-serve` through the real binary: a worker count or queue depth of
//! zero is a usage error (exit 2, one `error:` line naming the flag)
//! before any socket is bound — not a server that answers every
//! submission `rejected_overload`, and not a silent clamp.

use std::process::Command;

#[test]
fn a_zero_queue_depth_or_worker_count_exits_2_naming_the_flag() {
    for flag in ["--queue-depth", "--workers"] {
        let socket = std::env::temp_dir().join(format!("df-serve-cli-{}.sock", std::process::id()));
        let out = Command::new(env!("CARGO_BIN_EXE_df-serve"))
            .arg("--socket")
            .arg(&socket)
            .args([flag, "0"])
            .output()
            .unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.starts_with(&format!("error: {flag} must be positive\n")), "{stderr}");
        assert!(stderr.contains("usage: df-serve"), "{stderr}");
        assert!(!socket.exists(), "{flag} 0 bound a socket");
    }
}
