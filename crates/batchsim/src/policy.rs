//! The eight machine-selection policies of Section 5.3.

use green_units::{Energy, TimeSpan};

/// What a policy sees for one candidate machine at submission time: the
/// prediction-service quote plus the current queue estimate.
#[derive(Debug, Clone, Copy)]
pub struct MachineOption {
    /// Machine index in the fleet.
    pub machine: usize,
    /// Whether the job fits this machine at all.
    pub eligible: bool,
    /// Predicted runtime there.
    pub runtime: TimeSpan,
    /// Predicted energy there.
    pub energy: Energy,
    /// Predicted charge under the scenario's accounting method.
    pub cost: f64,
    /// Estimated queue wait right now.
    pub est_wait: TimeSpan,
}

impl MachineOption {
    /// Estimated completion time (queue + runtime).
    pub fn est_completion(&self) -> TimeSpan {
        self.est_wait + self.runtime
    }
}

/// The [`MachineOption`] fields a policy's [`choose`](Policy::choose)
/// reads beyond eligibility, which every policy reads, and the runtime,
/// which every submission needs. The simulator builds only these, and a
/// policy that reads no `cost` schedules the same way under every
/// accounting method, grid and price.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reads {
    /// The quoted charge.
    pub cost: bool,
    /// The predicted energy.
    pub energy: bool,
    /// The estimated queue wait.
    pub wait: bool,
    /// `Some(i)`: only machine `i`'s option is read.
    pub only: Option<usize>,
}

/// A user machine-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Minimize allocation cost under the active accounting method.
    Greedy,
    /// Minimize predicted energy.
    Energy,
    /// Cheapest machine, unless another completes the job in under half
    /// the time — then take the fast one.
    Mixed,
    /// Earliest finish time: minimize queue wait + runtime.
    Eft,
    /// Minimize runtime alone.
    Runtime,
    /// Always use one machine (fleet index).
    Fixed(usize),
    /// Extension (Section 5.6's discussion made concrete): like `Greedy`,
    /// but the job may also be *delayed* up to this many hours if a
    /// cleaner submission time lowers its quoted cost — carbon-aware
    /// temporal shifting in addition to spatial shifting.
    GreedyShift {
        /// Longest acceptable submission delay, in whole hours.
        max_delay_hours: u32,
    },
    /// Market extension: minimize the *posted* price (method charge ×
    /// the market's price multiplier), and let each user's
    /// [`MarketAgent`](crate::market::MarketAgent) elasticity decide
    /// whether to shift the submission within their deadline slack. With
    /// no market inputs this degenerates to `Greedy`.
    Adaptive,
}

impl Policy {
    /// The paper's eight policies against the Table 5 fleet
    /// (Fixed indices: 0 = FASTER, 2 = IC, 3 = Theta).
    pub fn paper_set() -> Vec<Policy> {
        vec![
            Policy::Greedy,
            Policy::Energy,
            Policy::Mixed,
            Policy::Eft,
            Policy::Runtime,
            Policy::Fixed(3), // Theta
            Policy::Fixed(2), // IC
            Policy::Fixed(0), // FASTER
        ]
    }

    /// The multi-machine subset used by the CBA and low-carbon figures.
    pub fn multi_machine_set() -> Vec<Policy> {
        vec![
            Policy::Greedy,
            Policy::Energy,
            Policy::Mixed,
            Policy::Eft,
            Policy::Runtime,
        ]
    }

    /// Display name. `fleet_names` supplies names for fixed policies.
    pub fn name(&self, fleet_names: &[&str]) -> String {
        match self {
            Policy::Greedy => "Greedy".into(),
            Policy::Energy => "Energy".into(),
            Policy::Mixed => "Mixed".into(),
            Policy::Eft => "EFT".into(),
            Policy::Runtime => "Runtime".into(),
            Policy::Fixed(i) => fleet_names.get(*i).copied().unwrap_or("Fixed?").into(),
            Policy::GreedyShift { max_delay_hours } => {
                format!("Greedy+Shift({max_delay_hours}h)")
            }
            Policy::Adaptive => "Adaptive".into(),
        }
    }

    /// The option fields [`choose`](Policy::choose) reads. GreedyShift and
    /// Adaptive also read the cost and the wait in the simulator's delay
    /// search.
    pub fn reads(&self) -> Reads {
        let eligibility = Reads {
            cost: false,
            energy: false,
            wait: false,
            only: None,
        };
        match *self {
            Policy::Greedy => Reads {
                cost: true,
                ..eligibility
            },
            Policy::Energy => Reads {
                energy: true,
                ..eligibility
            },
            Policy::Eft => Reads {
                wait: true,
                ..eligibility
            },
            Policy::Runtime => eligibility,
            Policy::Fixed(i) => Reads {
                only: Some(i),
                ..eligibility
            },
            Policy::Mixed | Policy::GreedyShift { .. } | Policy::Adaptive => Reads {
                cost: true,
                wait: true,
                ..eligibility
            },
        }
    }

    /// Picks a machine. Returns `None` when no eligible machine exists
    /// (or the fixed machine cannot take the job).
    pub fn choose(&self, options: &[MachineOption]) -> Option<usize> {
        let eligible = || options.iter().filter(|o| o.eligible);
        match self {
            Policy::Greedy => eligible()
                .min_by(|a, b| a.cost.total_cmp(&b.cost))
                .map(|o| o.machine),
            Policy::Energy => eligible()
                .min_by(|a, b| a.energy.as_joules().total_cmp(&b.energy.as_joules()))
                .map(|o| o.machine),
            Policy::Runtime => eligible()
                .min_by(|a, b| a.runtime.as_secs().total_cmp(&b.runtime.as_secs()))
                .map(|o| o.machine),
            Policy::Eft => eligible()
                .min_by(|a, b| {
                    a.est_completion()
                        .as_secs()
                        .total_cmp(&b.est_completion().as_secs())
                })
                .map(|o| o.machine),
            Policy::Mixed => {
                let cheapest = eligible().min_by(|a, b| a.cost.total_cmp(&b.cost))?;
                let fastest = eligible().min_by(|a, b| {
                    a.est_completion()
                        .as_secs()
                        .total_cmp(&b.est_completion().as_secs())
                })?;
                if fastest.est_completion().as_secs() < 0.5 * cheapest.est_completion().as_secs() {
                    Some(fastest.machine)
                } else {
                    Some(cheapest.machine)
                }
            }
            Policy::Fixed(i) => options
                .iter()
                .find(|o| o.machine == *i && o.eligible)
                .map(|o| o.machine),
            // Once the (possibly delayed) submission moment arrives, the
            // machine choice is cheapest-posted-price; the delay decision
            // itself lives in the simulator, which can quote future
            // prices. `cost` is already the posted price when a market is
            // active.
            Policy::GreedyShift { .. } | Policy::Adaptive => eligible()
                .min_by(|a, b| a.cost.total_cmp(&b.cost))
                .map(|o| o.machine),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opt(machine: usize, cost: f64, energy: f64, runtime: f64, wait: f64) -> MachineOption {
        MachineOption {
            machine,
            eligible: true,
            runtime: TimeSpan::from_secs(runtime),
            energy: Energy::from_joules(energy),
            cost,
            est_wait: TimeSpan::from_secs(wait),
        }
    }

    fn options() -> Vec<MachineOption> {
        vec![
            opt(0, 10.0, 500.0, 100.0, 0.0),  // cheap, slow-ish
            opt(1, 30.0, 300.0, 90.0, 500.0), // efficient, queued
            opt(2, 20.0, 800.0, 40.0, 0.0),   // fast, dirty
        ]
    }

    #[test]
    fn greedy_picks_cheapest() {
        assert_eq!(Policy::Greedy.choose(&options()), Some(0));
    }

    #[test]
    fn energy_picks_most_efficient() {
        assert_eq!(Policy::Energy.choose(&options()), Some(1));
    }

    #[test]
    fn runtime_ignores_queues() {
        assert_eq!(Policy::Runtime.choose(&options()), Some(2));
    }

    #[test]
    fn eft_includes_queue_wait() {
        // Machine 1 is fastest raw but queued; EFT picks machine 2.
        assert_eq!(Policy::Eft.choose(&options()), Some(2));
    }

    #[test]
    fn mixed_switches_when_twice_as_fast() {
        // Cheapest (m0) completes in 100; fastest (m2) in 40 < 50 ⇒ fast.
        assert_eq!(Policy::Mixed.choose(&options()), Some(2));
        // If the fast machine is only modestly faster, stay cheap.
        let mut opts = options();
        opts[2].runtime = TimeSpan::from_secs(60.0);
        assert_eq!(Policy::Mixed.choose(&opts), Some(0));
    }

    #[test]
    fn fixed_requires_eligibility() {
        let mut opts = options();
        assert_eq!(Policy::Fixed(1).choose(&opts), Some(1));
        opts[1].eligible = false;
        assert_eq!(Policy::Fixed(1).choose(&opts), None);
    }

    #[test]
    fn ineligible_machines_never_chosen() {
        let mut opts = options();
        opts[0].eligible = false;
        assert_eq!(Policy::Greedy.choose(&opts), Some(2));
        for o in &mut opts {
            o.eligible = false;
        }
        assert_eq!(Policy::Greedy.choose(&opts), None);
    }

    #[test]
    fn names() {
        let fleet = ["FASTER", "Desktop", "IC", "Theta"];
        assert_eq!(Policy::Fixed(3).name(&fleet), "Theta");
        assert_eq!(Policy::Greedy.name(&fleet), "Greedy");
    }
}
