//! `dstore_bench`: see the library crate for the command line.

fn main() -> std::process::ExitCode {
    dstore_benchmark::run()
}
