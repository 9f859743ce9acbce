//! Execution statistics and per-task trace records.
//!
//! The paper's §IV-B reports task granularity (count, duration range,
//! average), runtime overhead relative to useful work, average task
//! concurrency, and aggregate working-set sizes. All of those are computed
//! here from the trace the runtime records.

use std::time::Duration;

/// One completed task, as recorded by the runtime.
#[derive(Debug, Clone)]
pub struct TaskRecord {
    /// Task id (submission order).
    pub id: usize,
    /// Task kind label.
    pub label: &'static str,
    /// Client tag.
    pub tag: u64,
    /// Worker that executed the task.
    pub worker: usize,
    /// Start time, seconds since the runtime epoch.
    pub start: f64,
    /// End time, seconds since the runtime epoch.
    pub end: f64,
    /// Declared working-set size in bytes.
    pub working_set_bytes: usize,
}

impl TaskRecord {
    /// Task duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Aggregated execution statistics.
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Number of completed tasks.
    pub tasks: usize,
    /// Sum of task durations (useful work), seconds.
    pub total_task_time: f64,
    /// Shortest task, seconds.
    pub min_task_time: f64,
    /// Longest task, seconds.
    pub max_task_time: f64,
    /// Wall-clock span from first task start to last task end, seconds.
    pub makespan: f64,
    /// Time-averaged number of concurrently running tasks.
    pub avg_concurrency: f64,
    /// Maximum number of concurrently running tasks.
    pub peak_concurrency: usize,
    /// Time-averaged sum of working sets of concurrently running tasks.
    pub avg_working_set_bytes: f64,
    /// Peak sum of working sets of concurrently running tasks.
    pub peak_working_set_bytes: usize,
    /// Total time spent inside the runtime itself rather than in task
    /// bodies, seconds: submission and replay bookkeeping, and on each
    /// worker every stretch from the end of one body to the start of its
    /// next body or to going idle (completion bookkeeping, successor
    /// release, the queue pop, waiting for the runtime lock).
    pub overhead_time: f64,
}

impl RuntimeStats {
    /// Mean task duration, seconds.
    pub fn avg_task_time(&self) -> f64 {
        if self.tasks == 0 {
            0.0
        } else {
            self.total_task_time / self.tasks as f64
        }
    }

    /// Ratio of runtime overhead to useful task time. The paper reports
    /// this staying below 0.1 (overhead "ten times smaller").
    pub fn overhead_ratio(&self) -> f64 {
        if self.total_task_time == 0.0 {
            0.0
        } else {
            self.overhead_time / self.total_task_time
        }
    }

    /// Builds aggregate statistics from a trace.
    ///
    /// Concurrency and working-set figures come from a sweep over the
    /// start/end events of all records.
    pub fn from_records(records: &[TaskRecord], overhead: Duration) -> Self {
        if records.is_empty() {
            return Self::default();
        }
        let mut stats = Self {
            tasks: records.len(),
            min_task_time: f64::INFINITY,
            overhead_time: overhead.as_secs_f64(),
            ..Self::default()
        };
        let mut first = f64::INFINITY;
        let mut last = 0.0f64;
        for r in records {
            let d = r.duration();
            stats.total_task_time += d;
            stats.min_task_time = stats.min_task_time.min(d);
            stats.max_task_time = stats.max_task_time.max(d);
            first = first.min(r.start);
            last = last.max(r.end);
        }
        stats.makespan = (last - first).max(0.0);

        // Event sweep: +1 task / +ws at start, -1 / -ws at end.
        let mut events: Vec<(f64, i64, i64)> = Vec::with_capacity(records.len() * 2);
        for r in records {
            events.push((r.start, 1, r.working_set_bytes as i64));
            events.push((r.end, -1, -(r.working_set_bytes as i64)));
        }
        // Ends sort before starts at equal timestamps so instantaneous
        // handoffs do not double-count.
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut conc = 0i64;
        let mut ws = 0i64;
        let mut conc_integral = 0.0;
        let mut ws_integral = 0.0;
        let mut prev_t = events[0].0;
        for (t, dc, dw) in events {
            let dt = t - prev_t;
            conc_integral += conc as f64 * dt;
            ws_integral += ws as f64 * dt;
            conc += dc;
            ws += dw;
            stats.peak_concurrency = stats.peak_concurrency.max(conc as usize);
            stats.peak_working_set_bytes = stats.peak_working_set_bytes.max(ws.max(0) as usize);
            prev_t = t;
        }
        if stats.makespan > 0.0 {
            stats.avg_concurrency = conc_integral / stats.makespan;
            stats.avg_working_set_bytes = ws_integral / stats.makespan;
        } else {
            // Degenerate zero-length trace: report instantaneous values.
            stats.avg_concurrency = records.len() as f64;
            stats.avg_working_set_bytes = records.iter().map(|r| r.working_set_bytes as f64).sum();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: usize, worker: usize, start: f64, end: f64, ws: usize) -> TaskRecord {
        TaskRecord {
            id,
            label: "t",
            tag: 0,
            worker,
            start,
            end,
            working_set_bytes: ws,
        }
    }

    #[test]
    fn empty_trace_is_zeroed() {
        let s = RuntimeStats::from_records(&[], Duration::ZERO);
        assert_eq!(s.tasks, 0);
        assert_eq!(s.avg_task_time(), 0.0);
        assert_eq!(s.overhead_ratio(), 0.0);
    }

    #[test]
    fn durations_and_makespan() {
        let recs = [rec(0, 0, 0.0, 1.0, 0), rec(1, 1, 0.5, 2.5, 0)];
        let s = RuntimeStats::from_records(&recs, Duration::from_millis(100));
        assert_eq!(s.tasks, 2);
        assert!((s.total_task_time - 3.0).abs() < 1e-12);
        assert!((s.min_task_time - 1.0).abs() < 1e-12);
        assert!((s.max_task_time - 2.0).abs() < 1e-12);
        assert!((s.makespan - 2.5).abs() < 1e-12);
        assert!((s.avg_task_time() - 1.5).abs() < 1e-12);
        assert!((s.overhead_time - 0.1).abs() < 1e-12);
    }

    #[test]
    fn concurrency_sweep() {
        // [0,1] and [0.5,2.5] overlap during [0.5,1.0].
        let recs = [rec(0, 0, 0.0, 1.0, 100), rec(1, 1, 0.5, 2.5, 200)];
        let s = RuntimeStats::from_records(&recs, Duration::ZERO);
        assert_eq!(s.peak_concurrency, 2);
        // integral = 1*0.5 + 2*0.5 + 1*1.5 = 3.0 over makespan 2.5.
        assert!((s.avg_concurrency - 1.2).abs() < 1e-9);
        assert_eq!(s.peak_working_set_bytes, 300);
    }

    #[test]
    fn sequential_handoff_does_not_double_count() {
        let recs = [rec(0, 0, 0.0, 1.0, 64), rec(1, 0, 1.0, 2.0, 64)];
        let s = RuntimeStats::from_records(&recs, Duration::ZERO);
        assert_eq!(s.peak_concurrency, 1);
        assert_eq!(s.peak_working_set_bytes, 64);
    }

    #[test]
    fn overhead_ratio_relative_to_work() {
        let recs = [rec(0, 0, 0.0, 10.0, 0)];
        let s = RuntimeStats::from_records(&recs, Duration::from_secs(1));
        assert!((s.overhead_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn record_duration() {
        assert!((rec(0, 0, 1.0, 3.5, 0).duration() - 2.5).abs() < 1e-12);
    }
}
