//! `sdigest` — the SyslogDigest command line (see `sd_cli` for the
//! subcommand implementations).

use sd_cli::LogFormat;
use std::io::{self, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Errors respect --log-format even when parsing itself fails, so a
    // supervisor reading JSON diagnostics never sees a stray text line.
    let fmt = args
        .windows(2)
        .find(|w| w[0] == "--log-format")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(LogFormat::Text);
    if args.is_empty() {
        eprint!("{}", sd_cli::usage());
        std::process::exit(2);
    }
    let parsed = match sd_cli::Parsed::parse(args) {
        Ok(p) => p,
        Err(e) => {
            fmt.emit("error", &e.to_string(), &[]);
            std::process::exit(2);
        }
    };
    let out = match sd_cli::dispatch(&parsed) {
        Ok(out) => out + "\n",
        Err(e) => {
            fmt.emit("error", &e.to_string(), &[]);
            std::process::exit(1);
        }
    };
    let mut stdout = io::stdout().lock();
    let written = stdout
        .write_all(out.as_bytes())
        .and_then(|()| stdout.flush());
    match written {
        Ok(()) => {}
        // A reader that stops early (`| head`) has what it wanted.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {}
        Err(e) => {
            fmt.emit("error", &format!("writing to stdout: {e}"), &[]);
            std::process::exit(1);
        }
    }
}
