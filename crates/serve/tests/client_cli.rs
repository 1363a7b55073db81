//! The `lockstep_client` binary's flag handling: a flag its subcommand
//! does not read is refused with exit code 2 before any connection is
//! attempted, like the experiment CLIs' unknown-flag path.

use std::process::Command;

/// Runs the client against an address nothing listens on, so reaching
/// the network would show up as a connection error instead.
fn client(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lockstep_client"))
        .args(["--addr", "127.0.0.1:1"])
        .args(args)
        .output()
        .expect("client runs")
}

#[test]
fn misspelt_flag_is_refused_before_connecting() {
    let out = client(&["submit", "--workloads", "rspeed", "--faults", "5", "--redundnacy", "dme"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--redundnacy`"), "{stderr}");
    assert!(!stderr.contains("cannot connect"), "{stderr}");
}

#[test]
fn flags_of_another_subcommand_are_refused() {
    for args in [
        &["submit", "--workloads", "rspeed", "--faults", "5", "--replay-mode", "shadow"][..],
        &["ping", "--job", "job-000001"],
        &["predict", "--dsr", "0x1", "--faults", "5"],
        &["wait", "--job", "job-000001", "--granularity", "fine"],
    ] {
        let out = client(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"), "{args:?}");
    }
}

#[test]
fn usage_names_the_redundancy_flag() {
    let out = client(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("--redundancy fixed|dynamic|dme"));
}
