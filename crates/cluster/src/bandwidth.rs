//! Max-min fair bandwidth allocation.
//!
//! PipeDream's planner assumes a hierarchical topology with identical
//! bandwidth per level (§3.1 Obs. 2 calls this out as an oversimplification).
//! The simulator instead computes the rate every concurrent flow actually
//! gets with progressive filling (water-filling) over the real link
//! capacities, which is the standard fluid approximation of per-flow fair
//! queueing on a single-switch fabric.

use crate::topology::LinkId;

/// A flow competing for bandwidth: a set of links it traverses plus an
/// optional demand cap (bytes/s). `demand = f64::INFINITY` means elastic.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Links traversed (empty = node-local, gets `local_rate`).
    pub links: Vec<LinkId>,
    /// Application-level rate cap in bytes/s.
    pub demand: f64,
}

impl Flow {
    /// An elastic flow over the given path.
    pub fn elastic(links: Vec<LinkId>) -> Self {
        Flow {
            links,
            demand: f64::INFINITY,
        }
    }
}

/// Max-min fair allocation with its working memory kept between calls:
/// a caller that recomputes rates at every event (the simulator)
/// allocates nothing once the buffers have grown to its flow and link
/// counts. Per-link state lives in flat arrays indexed by
/// [`LinkId::index`].
#[derive(Debug, Default)]
pub struct FairShare {
    rates: Vec<f64>,
    demand: Vec<f64>,
    frozen: Vec<bool>,
    /// Flow `i` crosses `links[start[i]..start[i + 1]]` (dense indices).
    links: Vec<usize>,
    start: Vec<usize>,
    /// Unfrozen flows of the current fill round.
    active: Vec<usize>,
    /// Per link: residual capacity, unfrozen crossers this round, and
    /// whether the current call uses it.
    residual: Vec<f64>,
    crossers: Vec<usize>,
    used: Vec<bool>,
    /// The links the current call uses, in first-seen order.
    touched: Vec<usize>,
}

impl FairShare {
    /// Max-min fair rates (bytes/s) of `flows`, in order, over links
    /// whose free capacity is `capacity(link)`; a flow with an empty path
    /// is node-local and gets `local_rate` (capped by its demand).
    ///
    /// Progressive filling: raise all unfrozen flows' rates equally until
    /// a link saturates or a flow hits its demand; freeze those and
    /// repeat.
    pub fn rates<'f, F>(
        &mut self,
        flows: impl IntoIterator<Item = &'f Flow>,
        capacity: F,
        local_rate: f64,
    ) -> &[f64]
    where
        F: Fn(LinkId) -> f64,
    {
        self.rates.clear();
        self.demand.clear();
        self.frozen.clear();
        self.links.clear();
        self.start.clear();
        self.start.push(0);
        for f in flows {
            for &l in &f.links {
                let k = l.index();
                if k >= self.used.len() {
                    self.used.resize(k + 1, false);
                    self.residual.resize(k + 1, 0.0);
                    self.crossers.resize(k + 1, 0);
                }
                if !self.used[k] {
                    self.used[k] = true;
                    self.residual[k] = capacity(l);
                    self.touched.push(k);
                }
                self.links.push(k);
            }
            self.start.push(self.links.len());
            // Local flows are only limited by their demand and the local
            // fabric.
            let local = f.links.is_empty();
            self.rates
                .push(if local { f.demand.min(local_rate) } else { 0.0 });
            self.frozen.push(local);
            self.demand.push(f.demand);
        }
        self.fill();
        for &k in &self.touched {
            self.used[k] = false;
        }
        self.touched.clear();
        &self.rates
    }

    /// Progressive filling over the flows and links loaded by
    /// [`FairShare::rates`].
    fn fill(&mut self) {
        let n = self.rates.len();
        loop {
            self.active.clear();
            self.active.extend((0..n).filter(|&i| !self.frozen[i]));
            if self.active.is_empty() {
                break;
            }

            // Count each link's unfrozen crossers in one pass (a flow
            // listing a link twice crosses it once).
            for &i in &self.active {
                let path = &self.links[self.start[i]..self.start[i + 1]];
                for (j, &k) in path.iter().enumerate() {
                    if !path[..j].contains(&k) {
                        self.crossers[k] += 1;
                    }
                }
            }
            // The smallest per-flow increment that saturates some link.
            let mut min_incr = f64::INFINITY;
            for &k in &self.touched {
                let (cap, crossers) = (self.residual[k], self.crossers[k]);
                if crossers > 0 && cap.is_finite() {
                    min_incr = min_incr.min(cap / crossers as f64);
                }
                self.crossers[k] = 0;
            }
            // Or the smallest remaining demand.
            for &i in &self.active {
                min_incr = min_incr.min(self.demand[i] - self.rates[i]);
            }
            if !min_incr.is_finite() {
                // All active flows are elastic and cross no finite link.
                for &i in &self.active {
                    self.rates[i] = f64::INFINITY;
                }
                break;
            }
            debug_assert!(min_incr >= -1e-9, "negative fill increment");
            let incr = min_incr.max(0.0);

            for &i in &self.active {
                self.rates[i] += incr;
                for &k in &self.links[self.start[i]..self.start[i + 1]] {
                    self.residual[k] -= incr;
                }
            }

            // Freeze flows at demand or on saturated links.
            for &i in &self.active {
                let at_demand = self.rates[i] >= self.demand[i] - 1e-9;
                let on_saturated = self.links[self.start[i]..self.start[i + 1]]
                    .iter()
                    .any(|&k| self.residual[k] <= 1e-6);
                if at_demand || on_saturated {
                    self.frozen[i] = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ServerId;
    use crate::units::gbps;

    fn up(s: usize) -> LinkId {
        LinkId::Up(ServerId(s))
    }
    fn down(s: usize) -> LinkId {
        LinkId::Down(ServerId(s))
    }

    #[test]
    fn single_flow_gets_line_rate() {
        let flows = vec![Flow::elastic(vec![up(0), down(1)])];
        let r = FairShare::default()
            .rates(&flows, |_| gbps(10.0), gbps(96.0))
            .to_vec();
        assert!((r[0] - gbps(10.0)).abs() < 1.0);
    }

    #[test]
    fn two_flows_share_common_uplink_evenly() {
        let flows = vec![
            Flow::elastic(vec![up(0), down(1)]),
            Flow::elastic(vec![up(0), down(2)]),
        ];
        let r = FairShare::default()
            .rates(&flows, |_| gbps(10.0), gbps(96.0))
            .to_vec();
        assert!((r[0] - gbps(5.0)).abs() < 1.0);
        assert!((r[1] - gbps(5.0)).abs() < 1.0);
    }

    #[test]
    fn demand_capped_flow_releases_bandwidth() {
        let flows = vec![
            Flow {
                links: vec![up(0), down(1)],
                demand: gbps(2.0),
            },
            Flow::elastic(vec![up(0), down(2)]),
        ];
        let r = FairShare::default()
            .rates(&flows, |_| gbps(10.0), gbps(96.0))
            .to_vec();
        assert!((r[0] - gbps(2.0)).abs() < 1.0);
        assert!((r[1] - gbps(8.0)).abs() < 1.0);
    }

    #[test]
    fn local_flow_uses_local_fabric() {
        let flows = vec![Flow::elastic(vec![])];
        let r = FairShare::default()
            .rates(&flows, |_| gbps(10.0), 12.0e9)
            .to_vec();
        assert!((r[0] - 12.0e9).abs() < 1.0);
    }

    #[test]
    fn heterogeneous_capacities_respected() {
        // Flow A crosses a 10G uplink; flow B crosses a 100G uplink but
        // shares flow A's 25G downlink.
        let caps = |l: LinkId| match l {
            LinkId::Up(ServerId(0)) => gbps(10.0),
            LinkId::Up(ServerId(1)) => gbps(100.0),
            LinkId::Down(ServerId(2)) => gbps(25.0),
            _ => gbps(100.0),
        };
        let flows = vec![
            Flow::elastic(vec![up(0), down(2)]),
            Flow::elastic(vec![up(1), down(2)]),
        ];
        let r = FairShare::default()
            .rates(&flows, caps, gbps(96.0))
            .to_vec();
        // A is limited by its 10G uplink; B picks up the rest of the 25G
        // downlink.
        assert!((r[0] - gbps(10.0)).abs() < gbps(0.01));
        assert!((r[1] - gbps(15.0)).abs() < gbps(0.01));
    }

    #[test]
    fn empty_flow_set_is_fine() {
        let r = FairShare::default()
            .rates(&[], |_| gbps(10.0), gbps(96.0))
            .to_vec();
        assert!(r.is_empty());
    }

    #[test]
    fn total_on_link_never_exceeds_capacity() {
        let flows: Vec<Flow> = (0..7)
            .map(|i| Flow::elastic(vec![up(0), down(1 + i % 3)]))
            .collect();
        let r = FairShare::default()
            .rates(&flows, |_| gbps(40.0), gbps(96.0))
            .to_vec();
        let total: f64 = r.iter().sum();
        assert!(total <= gbps(40.0) + 1.0, "uplink oversubscribed: {total}");
    }
}
