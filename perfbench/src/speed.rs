//! Host speed: a fixed probe timed between requests, by which every
//! end-to-end timing is divided.
//!
//! The shared host this benchmark was built on has slow phases of 1.3–1.8×
//! that last from a second to minutes — often longer than a run. A run that
//! falls into one reads slow however its samples are summarized, and two
//! series of the same commit disagree by more than any useful bound. The
//! probe here — one number-theoretic transform over a 4096-entry row,
//! written in this file and sharing no code with the crates under test —
//! slows down with the host, so a request's time divided by the probe's time
//! around it holds still while both move (over five minutes of interleaved
//! samples, the Harris kernel's median moved 5% raw and 0.9% divided).
//!
//! A workload evaluating on several threads is probed on as many: each
//! thread times its own pass and the sample is their mean, so a slow phase
//! of one CPU counts as much as it slows the workload's two, not fully.
//!
//! A timing divided this way is in *reference seconds*: seconds on a host
//! whose probe takes [`REFERENCE_PROBE_S`], the probe's time on the host the
//! benchmark was built on in a quiet phase. On that host a reference second
//! is a second whenever nothing else runs.
//!
//! Work unlike the probe's — hashing, allocation, division — slows down
//! less than it; a workload made of such work divides by a power of the
//! slowdown instead (`Workload::request_sensitivity`).

use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The probe's time on the host the benchmark was built on, in a quiet phase.
pub const REFERENCE_PROBE_S: f64 = 46e-6;
/// Least time between two probe samples: slow phases last at least a
/// second, and a probe every 20 ms costs about 1% of the run.
const INTERVAL: Duration = Duration::from_millis(20);
/// Probe samples the slowdown of an interval is the median of, at least.
const NEIGHBOURS: usize = 9;
/// Transform length.
const N: usize = 4096;
/// A 62-bit prime; the probe's arithmetic is modulo it.
const Q: u64 = 0x3FFF_FFFF_FFFF_FFC3;

/// The probe: a forward Cooley–Tukey transform with Shoup multiplication,
/// the inner loop of every ring operation, on fixed pseudo-random data.
struct Probe {
    x: Vec<u64>,
    w: Vec<u64>,
    w_shoup: Vec<u64>,
}

impl Probe {
    fn new() -> Self {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % Q
        };
        let x = (0..N).map(|_| next()).collect();
        let w: Vec<u64> = (0..N).map(|_| next()).collect();
        let w_shoup = w
            .iter()
            .map(|&w| ((u128::from(w) << 64) / u128::from(Q)) as u64)
            .collect();
        Probe { x, w, w_shoup }
    }

    fn run(&mut self) {
        let x = black_box(&mut self.x[..]);
        let (mut m, mut t) = (1, N / 2);
        while m < N {
            for i in 0..m {
                let (w, ws) = (self.w[m + i], self.w_shoup[m + i]);
                let (lo, hi) = x[2 * i * t..2 * (i + 1) * t].split_at_mut(t);
                for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                    let quot = ((u128::from(*b) * u128::from(ws)) >> 64) as u64;
                    let mut v = b.wrapping_mul(w).wrapping_sub(quot.wrapping_mul(Q));
                    if v >= Q {
                        v -= Q;
                    }
                    let u = *a;
                    *a = if u + v >= Q { u + v - Q } else { u + v };
                    *b = if u >= v { u - v } else { u + Q - v };
                }
            }
            m *= 2;
            t /= 2;
        }
    }

    /// Seconds of one pass, after an untimed pass that brings the data back
    /// into cache (whatever ran before may have evicted it).
    fn time(&mut self) -> f64 {
        self.run();
        let t0 = Instant::now();
        self.run();
        t0.elapsed().as_secs_f64()
    }
}

/// Probe samples over a run, and the host slowdown they imply.
pub struct HostSpeed {
    probe: Probe,
    /// Per helper thread: the channel that starts a pass and the one its
    /// time comes back on.
    helpers: Vec<(Sender<()>, Receiver<f64>)>,
    threads: Vec<JoinHandle<()>>,
    origin: Instant,
    /// `(seconds since origin, probe seconds)`, in time order.
    samples: Vec<(f64, f64)>,
    last: Option<Instant>,
    /// Wall time spent probing, so loops can leave it out of their rates.
    spent: Duration,
}

impl HostSpeed {
    /// Probes on `threads` threads (the caller's and `threads - 1` helpers),
    /// data in cache, no samples yet.
    pub fn new(threads: usize) -> Self {
        let warm = || {
            let mut probe = Probe::new();
            for _ in 0..20 {
                probe.run();
            }
            probe
        };
        let (mut helpers, mut handles) = (Vec::new(), Vec::new());
        for _ in 1..threads {
            let (go, go_rx) = channel::<()>();
            let (done_tx, done) = channel();
            let mut probe = warm();
            handles.push(std::thread::spawn(move || {
                // Ends when the `HostSpeed` drops its sender.
                while go_rx.recv().is_ok() {
                    if done_tx.send(probe.time()).is_err() {
                        break;
                    }
                }
            }));
            helpers.push((go, done));
        }
        HostSpeed {
            probe: warm(),
            helpers,
            threads: handles,
            origin: Instant::now(),
            samples: Vec::new(),
            last: None,
            spent: Duration::ZERO,
        }
    }

    /// Takes a sample unless one was taken in the last [`INTERVAL`]; called
    /// before every request.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|l| l.elapsed() >= INTERVAL) {
            self.sample();
        }
    }

    /// Takes a sample: the mean time of one pass on every probing thread.
    ///
    /// # Panics
    ///
    /// Panics if a helper thread has died (a bug: they only loop).
    pub fn sample(&mut self) {
        let begin = Instant::now();
        for (go, _) in &self.helpers {
            go.send(()).expect("probe thread alive");
        }
        let mut total = self.probe.time();
        for (_, done) in &self.helpers {
            total += done.recv().expect("probe thread alive");
        }
        let end = Instant::now();
        let mid = (begin - self.origin).as_secs_f64() + (end - begin).as_secs_f64() / 2.0;
        let threads = 1 + self.helpers.len();
        self.samples.push((mid, total / threads as f64));
        self.last = Some(end);
        self.spent += end - begin;
    }

    /// Total wall time spent in [`HostSpeed::sample`].
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// How much slower than the reference the host ran from `start` to
    /// `end`: the median probe time over the samples inside the interval,
    /// widened to the nearest [`NEIGHBOURS`] when it holds fewer, divided
    /// by [`REFERENCE_PROBE_S`].
    ///
    /// # Panics
    ///
    /// Panics if no sample has been taken.
    pub fn slowdown(&self, start: Instant, end: Instant) -> f64 {
        assert!(!self.samples.is_empty(), "no host-speed sample taken");
        let at = |i: Instant| i.saturating_duration_since(self.origin).as_secs_f64();
        let (t0, t1) = (at(start), at(end));
        let n = self.samples.len();
        let mut lo = self.samples.partition_point(|&(t, _)| t < t0);
        let mut hi = self.samples.partition_point(|&(t, _)| t <= t1);
        while hi - lo < NEIGHBOURS.min(n) {
            let before = (lo > 0).then(|| t0 - self.samples[lo - 1].0);
            let after = (hi < n).then(|| self.samples[hi].0 - t1);
            match (before, after) {
                (Some(b), Some(a)) if b <= a => lo -= 1,
                (Some(_), None) => lo -= 1,
                _ => hi += 1,
            }
        }
        let probe: Vec<f64> = self.samples[lo..hi].iter().map(|&(_, d)| d).collect();
        crate::stats::median(&probe) / REFERENCE_PROBE_S
    }

    /// The slowdown over the whole run (the median of every sample).
    pub fn run_slowdown(&self) -> f64 {
        let probe: Vec<f64> = self.samples.iter().map(|&(_, d)| d).collect();
        crate::stats::median(&probe) / REFERENCE_PROBE_S
    }
}

impl Drop for HostSpeed {
    fn drop(&mut self) {
        // Closing the start channels ends the helpers' loops.
        self.helpers.clear();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_a_transform_modulo_q() {
        let mut p = Probe::new();
        let before = p.x.clone();
        p.run();
        assert!(p.x.iter().all(|&v| v < Q));
        assert_ne!(p.x, before);
        // Linear: transforming the sum of two inputs sums their transforms.
        let (mut a, mut b, mut sum) = (Probe::new(), Probe::new(), Probe::new());
        b.x.reverse();
        for i in 0..N {
            sum.x[i] = (a.x[i] + b.x[i]) % Q;
        }
        a.run();
        b.run();
        sum.run();
        assert!((0..N).all(|i| sum.x[i] == (a.x[i] + b.x[i]) % Q));
    }

    #[test]
    fn slowdown_takes_the_median_of_the_nearest_samples() {
        let mut s = HostSpeed::new(1);
        let o = s.origin;
        let at = |ms: u64| o + Duration::from_millis(ms);
        // Probe times 1x the reference for 20 samples, then 2x for 20.
        for i in 0..40u32 {
            let d = if i < 20 { 1.0 } else { 2.0 } * REFERENCE_PROBE_S;
            s.samples.push((f64::from(i) * 0.1, d));
        }
        assert_eq!(s.slowdown(at(0), at(0)), 1.0);
        assert_eq!(s.slowdown(at(3900), at(3900)), 2.0);
        // An interval holding many samples uses exactly those.
        assert_eq!(s.slowdown(at(2500), at(3900)), 2.0);
        assert_eq!(s.slowdown(at(0), at(1200)), 1.0);
        assert_eq!(s.run_slowdown(), 1.5);
    }

    #[test]
    fn helpers_probe_alongside_and_stop_on_drop() {
        let mut s = HostSpeed::new(3);
        s.sample();
        s.tick();
        assert_eq!(s.samples.len(), 1, "a tick right after a sample waits");
        assert!(s.samples[0].1 > 0.0 && s.spent() > Duration::ZERO);
        drop(s);
    }
}
