//! Command-line entry point; see the crate documentation and `README.md`.

use perfbench::args::{self, Command};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(Command::Run(run)) => perfbench::run_once(&run),
        Ok(Command::Record(series)) => std::process::exit(perfbench::compare::record(&series)),
        Ok(Command::Compare(series)) => std::process::exit(perfbench::compare::compare(&series)),
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", args::USAGE);
            std::process::exit(2);
        }
    }
}
