//! The shared Chrome-trace writer behind every subcommand's `--trace-out`.

/// Runs the exemplar trace described by `cfg` and writes the Chrome trace
/// JSON (chrome://tracing / Perfetto format) to `path`.
pub(crate) fn write_chrome_trace(path: &str, cfg: &mpsim::TraceRunConfig) -> Result<(), String> {
    let json = mpsim::trace_run(cfg)?;
    std::fs::write(path, json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    outln!("wrote {path} (load it in chrome://tracing or Perfetto)");
    Ok(())
}
