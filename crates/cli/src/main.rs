//! `sdigest` — the SyslogDigest command line (see `sd_cli` for the
//! subcommand implementations).

use sd_cli::LogFormat;

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
    match sd_cli::dispatch(&parsed) {
        Ok(out) => println!("{out}"),
        Err(e) => {
            fmt.emit("error", &e.to_string(), &[]);
            std::process::exit(1);
        }
    }
}
