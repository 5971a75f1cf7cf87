use flockbench::cli::{self, Command};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match cli::parse(&args) {
        Ok(Command::Run(run)) => flockbench::run::run(&run).map(|out| {
            eprintln!("flockbench: full record in {}", out.record_path.display());
            // The last line of standard output is the result.
            println!("{}", out.line);
            true
        }),
        Ok(Command::Diff { a, b }) => flockbench::diff::run(&a, &b),
        Err(e) => Err(format!("{e}\n{}", cli::USAGE)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("flockbench: {e}");
            ExitCode::from(2)
        }
    }
}
