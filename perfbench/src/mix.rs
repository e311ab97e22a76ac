//! The deterministic request mix both serve workloads send.
//!
//! A [`Mix`] tracks the model's live FCM set exactly as the daemon will
//! hold it, so every request it emits is valid by construction: removals
//! and attribute edits target FCMs the mix itself added, queries name
//! live FCMs, and a `restore_node` always follows its `fail_node`. Any
//! `"ok":false` therefore means the program's behaviour changed.
//!
//! Shares, as percentages of all requests: 30 writes, 70 reads. Writes
//! split 10 `add_fcm`, 10 `remove_fcm` (the two kept inside a band
//! around the starting size, so the model does not drift), 76
//! `set_attr`, and 4 `fail_node`/`restore_node` (alternating, one node
//! down at a time). Reads split 45 `influence`, 45 `separation`, 10
//! `stats`. The add/remove/set_attr and read shares are those of the
//! daemon's own load generator (`fcm_serve::gen`), whose `set_attr`
//! share here cedes 4 points to the fail/restore pairs.

use fcm_substrate::Rng;

/// Percent of requests that are writes.
pub const WRITE_PCT: u64 = 30;
/// Half-width of the band the added-FCM count random-walks in.
pub const SIZE_BAND: usize = 32;

/// One generated request line with its class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request line, without the trailing newline.
    pub line: String,
    /// Whether it is a mutation (write).
    pub write: bool,
}

/// The seeded request generator.
#[derive(Debug, Clone)]
pub struct Mix {
    rng: Rng,
    /// Base-model FCMs (never removed).
    base: Vec<String>,
    /// FCMs the mix added and has not removed, in insertion order.
    added: Vec<String>,
    /// HW nodes a `fail_node` may take down.
    failable: Vec<String>,
    /// The node currently failed, if any.
    down: Option<String>,
    /// Next fresh FCM number.
    next_fcm: u64,
    /// Next request id.
    next_id: u64,
    /// Lower/upper bound of the added-FCM band (set by [`Mix::grow`]).
    band: (usize, usize),
}

impl Mix {
    /// A mix over a model whose FCMs are `base`, able to fail the HW
    /// nodes in `failable`. A pure function of `seed` from here on.
    #[must_use]
    pub fn new(seed: u64, base: Vec<String>, failable: Vec<String>) -> Mix {
        Mix {
            rng: Rng::seed_from_u64(seed),
            base,
            added: Vec::new(),
            failable,
            down: None,
            next_fcm: 0,
            next_id: 0,
            band: (0, 2 * SIZE_BAND),
        }
    }

    /// FCMs live after every request emitted so far.
    #[must_use]
    pub fn live(&self) -> usize {
        self.base.len() + self.added.len()
    }

    /// `add_fcm` lines that grow the model to `total` FCMs; the band the
    /// later mix keeps the size in is centred on `total`.
    pub fn grow(&mut self, total: usize) -> Vec<Request> {
        let mut out = Vec::new();
        while self.live() < total {
            out.push(self.add_fcm());
        }
        let centre = self.added.len();
        self.band = (centre.saturating_sub(SIZE_BAND), centre + SIZE_BAND);
        out
    }

    /// The next `n` requests of the load mix.
    pub fn load(&mut self, n: usize) -> Vec<Request> {
        (0..n).map(|_| self.next_request()).collect()
    }

    /// The next request of the load mix.
    pub fn next_request(&mut self) -> Request {
        if self.rng.gen_range(0u64..100) < WRITE_PCT {
            let roll = self.rng.gen_range(0u64..100);
            if roll < 20 {
                let n = self.added.len();
                let add = if n <= self.band.0 {
                    true
                } else if n >= self.band.1 {
                    false
                } else {
                    roll < 10
                };
                if add {
                    self.add_fcm()
                } else {
                    self.remove_fcm()
                }
            } else if roll < 96 || self.failable.is_empty() {
                self.set_attr()
            } else {
                self.fail_or_restore()
            }
        } else {
            let roll = self.rng.gen_range(0u64..100);
            if roll < 90 {
                let op = if roll < 45 { "influence" } else { "separation" };
                let from = self.pick_live();
                let to = self.pick_live();
                self.read(format!(r#""op":"{op}","from":"{from}","to":"{to}""#))
            } else {
                self.read(r#""op":"stats""#.to_string())
            }
        }
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn write(&mut self, body: String) -> Request {
        let id = self.id();
        Request {
            line: format!("{{{body},\"id\":{id}}}"),
            write: true,
        }
    }

    fn read(&mut self, body: String) -> Request {
        let id = self.id();
        Request {
            line: format!("{{{body},\"id\":{id}}}"),
            write: false,
        }
    }

    fn pick_live(&mut self) -> String {
        let k = self.rng.gen_range(0..self.live());
        if k < self.base.len() {
            self.base[k].clone()
        } else {
            self.added[k - self.base.len()].clone()
        }
    }

    /// A leaf FCM with one or two outgoing edges and, half the time, one
    /// weak incoming edge. Out-edges are fixed at creation and weak
    /// in-edges are rare, so every row sum stays well below 1 and the
    /// Eq. 3 series keeps converging however long the mix runs.
    fn add_fcm(&mut self) -> Request {
        let name = format!("x{}", self.next_fcm);
        self.next_fcm += 1;
        let crit = self.rng.gen_range(0u64..3);
        let mut outs = Vec::new();
        for _ in 0..self.rng.gen_range(1usize..=2) {
            let to = self.pick_live();
            if !outs.iter().any(|(t, _)| t == &to) {
                let w = self.rng.gen_range(0.01f64..0.2);
                outs.push((to, w));
            }
        }
        let ins = if self.rng.gen_bool(0.5) {
            let from = self.pick_live();
            let w = self.rng.gen_range(0.001f64..0.02);
            format!(r#"[["{from}",{w}]]"#)
        } else {
            "[]".to_string()
        };
        let outs = outs
            .iter()
            .map(|(t, w)| format!(r#"["{t}",{w}]"#))
            .collect::<Vec<_>>()
            .join(",");
        self.added.push(name.clone());
        self.write(format!(
            r#""op":"add_fcm","name":"{name}","criticality":{crit},"influences":[{outs}],"influenced_by":{ins}"#
        ))
    }

    fn remove_fcm(&mut self) -> Request {
        let k = self.rng.gen_range(0..self.added.len());
        let name = self.added.swap_remove(k);
        self.write(format!(r#""op":"remove_fcm","name":"{name}""#))
    }

    fn set_attr(&mut self) -> Request {
        if self.added.is_empty() {
            return self.add_fcm();
        }
        let name = self.added[self.rng.gen_range(0..self.added.len())].clone();
        if self.rng.gen_bool(0.5) {
            let crit = self.rng.gen_range(0u64..3);
            self.write(format!(
                r#""op":"set_attr","name":"{name}","criticality":{crit}"#
            ))
        } else {
            let thr = self.rng.gen_range(0.0f64..0.001);
            self.write(format!(
                r#""op":"set_attr","name":"{name}","throughput":{thr}"#
            ))
        }
    }

    fn fail_or_restore(&mut self) -> Request {
        match self.down.take() {
            Some(node) => self.write(format!(r#""op":"restore_node","node":"{node}""#)),
            None => {
                let node = self.failable[self.rng.gen_range(0..self.failable.len())].clone();
                self.down = Some(node.clone());
                self.write(format!(r#""op":"fail_node","node":"{node}""#))
            }
        }
    }
}
