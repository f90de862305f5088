//! The benchmark's own spans: recorded around the calls it makes into
//! each layer, kept in memory, and written out as a Chrome trace
//! (`chrome://tracing`, Perfetto) when the run ends. Nothing inside the
//! program is instrumented.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::drive::{ms, Record};
use crate::report::json_str;

/// One timed call: `name` is the layer, `tid` the client or probe
/// thread, times in microseconds from the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub tid: usize,
    pub start_us: f64,
    pub dur_us: f64,
    /// Extra fields, as the body of a JSON object.
    pub args: String,
}

impl Span {
    /// The span of one `SolveServer::submit` call, annotated with what
    /// the returned result says about the race.
    pub fn submit(tid: usize, start: Duration, system: &str, rec: &Record) -> Span {
        let mut args = format!(
            "\"system\": {}, \"attempts\": {}, \"judgement\": \"{:?}\"",
            json_str(system),
            rec.attempts,
            rec.judgement
        );
        if let Some(race) = rec.race {
            let _ = write!(args, ", \"race_ms\": {}", ms(race));
        }
        if let Some((name, elapsed)) = rec.winner {
            let _ = write!(
                args,
                ", \"winner\": \"{name}\", \"winner_ms\": {}",
                ms(elapsed)
            );
        }
        Span {
            name: "server.submit",
            tid,
            start_us: start.as_secs_f64() * 1e6,
            dur_us: rec.latency.as_secs_f64() * 1e6,
            args,
        }
    }
}

/// Collects spans against one epoch.
pub struct Tracer {
    epoch: Instant,
    tid: usize,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, tid: usize) -> Tracer {
        Tracer {
            epoch,
            tid,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the span's duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        system: &str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed();
        self.spans.push(Span {
            name,
            tid: self.tid,
            start_us: t0.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
            args: format!("\"system\": {}", json_str(system)),
        });
        (out, dur)
    }
}

/// Writes `spans` as a Chrome trace file.
pub fn write_chrome(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.1}, \"dur\": {:.1}, \"args\": {{{}}}}}",
            s.name, s.tid, s.start_us, s.dur_us, s.args
        );
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
