//! Seeded input generation: which video each request asks for, when it is
//! due, and the arrival slot it is stamped with.
//!
//! The program under test receives only what this module generates. Due
//! times are seconds on the client's schedule; a request's stamp is its due
//! time read on its video's dilated virtual slot clock, so stamps depend on
//! the seed and the schedule alone, never on how the run went. That clock
//! is the schedule's, not the server's: the server's clocks start before
//! the schedule does, so a shard sees stamps behind its own clock by a
//! set-up offset (see `pass::Gauges`).

use vod_sim::{SimRng, ZipfCatalog};

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Catalog video id.
    pub video: u32,
    /// Due time in seconds from the schedule origin.
    pub at: f64,
    /// Explicit arrival slot on the video's virtual clock.
    pub stamp: u64,
}

/// A seeded open-loop schedule over a Zipf-popular catalog.
#[derive(Debug, Clone)]
pub struct Generator {
    rng: SimRng,
    zipf: ZipfCatalog,
    /// Wall seconds per virtual slot, per video (slot duration ÷ dilation).
    slot_secs: Vec<f64>,
    now: f64,
}

impl Generator {
    /// A schedule starting at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `slot_secs` is empty or holds a non-positive duration.
    #[must_use]
    pub fn new(seed: u64, skew: f64, slot_secs: Vec<f64>) -> Generator {
        assert!(
            slot_secs.iter().all(|s| *s > 0.0),
            "slot durations must be positive"
        );
        Generator {
            rng: SimRng::seed_from(seed),
            zipf: ZipfCatalog::new(slot_secs.len(), skew),
            slot_secs,
            now: 0.0,
        }
    }

    /// The schedule time the next arrival is drawn after.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// `count` Poisson arrivals at `rate` per second, continuing the
    /// schedule where the previous call left it.
    pub fn poisson(&mut self, rate: f64, count: usize) -> Vec<Arrival> {
        (0..count)
            .map(|_| {
                self.now += self.rng.exponential(rate);
                let video = self.zipf.sample(&mut self.rng);
                Arrival {
                    video: video as u32,
                    at: self.now,
                    stamp: (self.now / self.slot_secs[video]) as u64,
                }
            })
            .collect()
    }

    /// Popularity share of each video.
    #[must_use]
    pub fn shares(&self) -> Vec<f64> {
        (0..self.zipf.videos())
            .map(|v| self.zipf.share(v))
            .collect()
    }
}

/// Assigns each video to one of `conns` connections so the connections
/// carry near-equal request shares: videos in descending popularity go to
/// whichever connection has the least share so far (ties to the lower id).
#[must_use]
pub fn assign_conns(shares: &[f64], conns: usize) -> Vec<usize> {
    let conns = conns.max(1);
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|a, b| shares[*b].total_cmp(&shares[*a]).then(a.cmp(b)));
    let mut load = vec![0.0_f64; conns];
    let mut owner = vec![0; shares.len()];
    for v in order {
        let c = (0..conns)
            .min_by(|x, y| load[*x].total_cmp(&load[*y]).then(x.cmp(y)))
            .expect("at least one connection");
        owner[v] = c;
        load[c] += shares[v];
    }
    owner
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slots() -> Vec<f64> {
        vec![0.0727, 0.0727, 0.06, 0.6]
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = Generator::new(7, 0.8, slots()).poisson(500.0, 2_000);
        let b = Generator::new(7, 0.8, slots()).poisson(500.0, 2_000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_choices_and_stamps() {
        let a = Generator::new(7, 0.8, slots()).poisson(500.0, 2_000);
        let b = Generator::new(8, 0.8, slots()).poisson(500.0, 2_000);
        let videos = |s: &[Arrival]| s.iter().map(|r| r.video).collect::<Vec<_>>();
        let stamps = |s: &[Arrival]| s.iter().map(|r| r.stamp).collect::<Vec<_>>();
        assert_ne!(videos(&a), videos(&b));
        assert_ne!(stamps(&a), stamps(&b));
    }

    #[test]
    fn stamps_follow_due_times_per_video() {
        let mut g = Generator::new(3, 0.8, slots());
        let first = g.poisson(1_000.0, 500);
        let second = g.poisson(50.0, 100);
        assert!(
            second[0].at > first[499].at,
            "schedules continue, never restart"
        );
        let mut last = [0u64; 4];
        for r in first.iter().chain(&second) {
            let v = r.video as usize;
            assert_eq!(r.stamp, (r.at / slots()[v]) as u64);
            assert!(r.stamp >= last[v], "per-video stamps never decrease");
            last[v] = r.stamp;
        }
        // Rate is respected: 500 arrivals at 1000/s take about half a second.
        assert!((0.4..0.6).contains(&first[499].at), "{}", first[499].at);
    }

    #[test]
    fn zipf_head_is_most_popular() {
        let reqs = Generator::new(11, 0.8, slots()).poisson(100.0, 4_000);
        let count = |v: u32| reqs.iter().filter(|r| r.video == v).count();
        assert!(count(0) > count(1) && count(1) > count(3));
    }

    #[test]
    fn connections_share_the_load() {
        let g = Generator::new(1, 0.8, vec![1.0; 16]);
        let owner = assign_conns(&g.shares(), 2);
        let load = |c: usize| -> f64 {
            g.shares()
                .iter()
                .zip(&owner)
                .filter(|(_, o)| **o == c)
                .map(|(s, _)| s)
                .sum()
        };
        assert!(
            (load(0) - load(1)).abs() < 0.05,
            "{} vs {}",
            load(0),
            load(1)
        );
        assert_eq!(assign_conns(&g.shares(), 1), vec![0; 16]);
    }
}
