//! Seeded inputs: the database script the server loads and the request
//! streams the clients send.  Everything here is a pure function of the
//! workload and the seed, so two runs with one seed send byte-identical
//! traffic to byte-identical databases.

use std::fmt::Write as _;

/// SplitMix64: tiny, fast, and good enough for workload generation.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, salt, index)`, so request `i` can
    /// be generated without generating requests `0..i` first.
    fn keyed(seed: u64, salt: u64, index: u64) -> Rng {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.0 ^= rng.next_u64() ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        rng.next_u64();
        rng
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

const SALT_DB: u64 = 1;
const SALT_STREAM: u64 = 2;
const SALT_MENU: u64 = 3;
const SALT_ARRIVALS: u64 = 4;
const SALT_PROBE: u64 = 5;
const SALT_BLOCKS: u64 = 6;

/// Entry `index` of a stream that visits `0..len` once per block of `len`,
/// each block in its own seeded order.  The mix is then exact over every
/// whole block, so every seed offers the same proportions.
fn stratified(seed: u64, index: u64, len: usize) -> usize {
    let block = index / len as u64;
    let mut order: Vec<usize> = (0..len).collect();
    let mut rng = Rng::keyed(seed, SALT_BLOCKS, block);
    for k in (1..len).rev() {
        order.swap(k, rng.below(k as u64 + 1) as usize);
    }
    order[(index % len as u64) as usize]
}

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointRead,
    Analytic,
    ReadWrite,
}

/// The fixed shape of one workload: database sizes, offered rate, and how
/// long the traced run is.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub parts: usize,
    pub users: usize,
    pub groups: usize,
    /// Rows of `configs`, each an `{<int>}` of five two-way or-sets, so 32
    /// possible worlds per row.
    pub configs: usize,
    pub nested: usize,
    /// Four-way or-sets in `design`.
    pub design_orsets: usize,
    /// Open-loop offered rate, requests per second.
    pub rate_rps: f64,
    /// Offered rate of the write probe, writes per second; 0 on a workload
    /// whose own stream writes.  The benchmark contract asks every workload
    /// for the write metrics, so a read-only workload gets them from
    /// rebinds of a name no read touches, on a second server.  The rate is
    /// about a quarter of the probe's closed-loop capacity on the
    /// workload's database (two connections, two cores: about 78 writes/s
    /// on `point_read`, 59 on `analytic`): at half, writes queued for a
    /// connection whenever the machine slowed down, and `write_tail_ms`
    /// spread by 28% of its median over ten runs.
    pub probe_rps: f64,
    /// `hot_0 .. hot_{n-1}` bindings rebound by the stream's writes.
    pub hot_names: usize,
    /// Requests in the traced (and the untraced reference) sequential run.
    pub trace_requests: usize,
}

/// read_write's rebinds keep the parts with `cost <= HOT_COST_CAP` (a
/// quarter of them, about 2 500 rows): with 5 000-row rebinds the write
/// metrics tracked the machine's speed swings, `write_p50_ms` moving by up
/// to 80% between runs.  The write probe keeps `cost <= PROBE_COST_CAP`
/// (one in two hundred): measured one at a time on two cores, a probe
/// write's median latency at caps 5, 50 and 500 is 20, 26 and 44 ms on
/// `point_read`'s database and 22, 41 and 77 ms on `analytic`'s.  At 5 it
/// measures the write path's fixed cost (writer mutex, core clone,
/// publish) on top of the accept loop, and leaves interning volume to
/// `read_write`.
const HOT_COST_CAP: u64 = 250;
const PROBE_COST_CAP: u64 = 5;
/// Rebind offsets are drawn from `1..=REBIND_OFFSETS`, so nearly every
/// rebind interns fresh rows and leaves its predecessor's as garbage.
const REBIND_OFFSETS: u64 = 1_000_000;
/// Costs are drawn from `0..COSTS`.
const COSTS: u64 = 1000;

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PointRead, Workload::Analytic, Workload::ReadWrite];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point_read",
            Workload::Analytic => "analytic",
            Workload::ReadWrite => "read_write",
        }
    }

    pub fn spec(self) -> Spec {
        let base = Spec {
            parts: 20_000,
            users: 5_000,
            groups: 40,
            configs: 1_250,
            nested: 2_000,
            design_orsets: 3,
            rate_rps: 0.0,
            probe_rps: 0.0,
            hot_names: 0,
            trace_requests: 0,
        };
        match self {
            Workload::PointRead => Spec {
                rate_rps: 50.0,
                probe_rps: 20.0,
                trace_requests: 150,
                ..base
            },
            // every statement does real engine work, and no class of them
            // dwarfs the others, so the latency distribution has no gap
            // for its median to fall into
            Workload::Analytic => Spec {
                parts: 40_000,
                users: 15_000,
                configs: 125,
                nested: 2_000,
                design_orsets: 4,
                rate_rps: 10.0,
                probe_rps: 15.0,
                trace_requests: 30,
                ..base
            },
            // no or-set tables: a smaller arena, so rebind garbage makes
            // the snapshot compact every seven or so writes, four times in
            // the traced run's 30 writes
            Workload::ReadWrite => Spec {
                parts: 10_000,
                users: 0,
                configs: 0,
                nested: 0,
                rate_rps: 40.0,
                hot_names: 3,
                trace_requests: 300,
                ..base
            },
        }
    }
}

/// One request of a stream.
#[derive(Debug, Clone)]
pub struct Request {
    pub statement: String,
    /// The name a `let` statement binds.
    pub binds: Option<String>,
    /// The rebound name a read scans, whose version the answer depends on.
    pub reads: Option<String>,
}

impl Request {
    fn read(statement: String) -> Request {
        Request {
            statement,
            binds: None,
            reads: None,
        }
    }

    /// The `POST /query` body.
    pub fn body(&self) -> String {
        format!(r#"{{"db":"bench","statement":"{}"}}"#, self.statement)
    }
}

/// The rebind statement for `name`: a same-type rebind over `parts`, so its
/// value depends only on `offset` and never on earlier writes.  Shifting
/// the ids by a fresh offset makes every row (and its id) a new arena node.
fn rebind(name: &str, offset: u64, cost_cap: u64) -> String {
    format!("let {name} = {{ (fst(p) + {offset}, snd(p)) | p <- parts, snd(p) <= {cost_cap} }}")
}

fn hot_name(j: u64) -> String {
    format!("hot_{j}")
}

/// The initial statement binding `hot_j` in the database script.
pub fn initial_hot(seed: u64, j: usize) -> Request {
    let mut rng = Rng::keyed(seed, SALT_DB, 1000 + j as u64);
    let name = hot_name(j as u64);
    Request {
        statement: rebind(&name, 1 + rng.below(REBIND_OFFSETS), HOT_COST_CAP),
        binds: Some(name),
        reads: None,
    }
}

/// The generated database script: one statement per line.
pub fn db_script(workload: Workload, seed: u64) -> String {
    let spec = workload.spec();
    let mut rng = Rng::keyed(seed, SALT_DB, 0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- perfbench database: workload {}, seed {seed}",
        workload.name()
    );
    let parts = (0..spec.parts)
        .map(|i| format!("({i}, {})", rng.below(COSTS)))
        .collect::<Vec<_>>();
    let _ = writeln!(out, "let parts = {{ {} }}", parts.join(", "));
    let users = (0..spec.users)
        .map(|i| format!("({i}, {})", rng.below(spec.groups as u64)))
        .collect::<Vec<_>>();
    if !users.is_empty() {
        let _ = writeln!(out, "let users = {{ {} }}", users.join(", "));
    }
    let groups = (0..spec.groups)
        .map(|g| format!("({g}, {})", rng.below(100)))
        .collect::<Vec<_>>();
    let _ = writeln!(out, "let groups = {{ {} }}", groups.join(", "));
    // five or-sets per row, alternatives drawn from disjoint 16-value bands
    // so every row denotes exactly 32 distinct worlds
    let configs = (0..spec.configs)
        .map(|i| {
            let orsets = (0..5u64)
                .map(|band| {
                    let a = band * 16 + rng.below(16);
                    let b = band * 16 + (a - band * 16 + 1 + rng.below(15)) % 16;
                    format!("<| {a}, {b} |>")
                })
                .collect::<Vec<_>>();
            format!("({i}, {{ {} }})", orsets.join(", "))
        })
        .collect::<Vec<_>>();
    if !configs.is_empty() {
        let _ = writeln!(out, "let configs = {{ {} }}", configs.join(", "));
    }
    let nested = (0..spec.nested)
        .map(|i| {
            let members = (0..3 + rng.below(4))
                .map(|_| rng.below(COSTS).to_string())
                .collect::<Vec<_>>();
            format!("({i}, {{ {} }})", members.join(", "))
        })
        .collect::<Vec<_>>();
    if !nested.is_empty() {
        let _ = writeln!(out, "let nested = {{ {} }}", nested.join(", "));
    }
    // `design_orsets` four-way or-sets: 4^n possible worlds
    let design = (0..spec.design_orsets as u64)
        .map(|k| {
            let alts = (0..4)
                .map(|a| (k * 100 + a * 7 + rng.below(7)).to_string())
                .collect::<Vec<_>>();
            format!("<| {} |>", alts.join(", "))
        })
        .collect::<Vec<_>>();
    let _ = writeln!(out, "let design = {{ {} }}", design.join(", "));
    for j in 0..spec.hot_names {
        let _ = writeln!(out, "{}", initial_hot(seed, j).statement);
    }
    if spec.probe_rps > 0.0 {
        let _ = writeln!(out, "{}", probe_initial(seed).statement);
    }
    out
}

/// The analytic workload's fixed statement menu (constants drawn once per
/// seed), every entry a plan-cache hit after its first use.
fn analytic_menu(seed: u64) -> Vec<String> {
    let mut rng = Rng::keyed(seed, SALT_MENU, 0);
    let member = rng.below(80);
    let low = rng.below(COSTS / 4);
    let high = low + COSTS / 2;
    vec![
        // per-row α-expansion, filtered on the expanded world
        format!(
            "{{ (fst(r), w) | r <- configs, w <- toset(normalize(snd(r))), member({member}, w) }}"
        ),
        // the same expansion, projected: every world of every row
        "{ (fst(r), w) | r <- configs, w <- toset(normalize(snd(r))) }".to_string(),
        // equi-join
        "{ (fst(u), snd(g)) | u <- users, g <- groups, snd(u) == fst(g) }".to_string(),
        // wide range scan
        format!("{{ p | p <- parts, {low} <= snd(p), snd(p) <= {high} }}"),
        // dependent-generator unnest
        "{ (fst(n), x) | n <- nested, x <- snd(n) }".to_string(),
        // conceptual-level query over a small or-set (interpreter fallback)
        "<| w | w <- normalize(design) |>".to_string(),
    ]
}

/// The read_write workload's fixed read menu.
fn read_write_menu(seed: u64) -> Vec<Request> {
    let spec = Workload::ReadWrite.spec();
    let mut rng = Rng::keyed(seed, SALT_MENU, 1);
    let mut menu = Vec::new();
    for j in 0..spec.hot_names as u64 {
        let name = hot_name(j);
        menu.push(Request {
            statement: format!("{{ fst(h) | h <- {name}, snd(h) <= 40 }}"),
            binds: None,
            reads: Some(name.clone()),
        });
        menu.push(Request {
            statement: format!(
                "{{ h | h <- {name}, snd(h) == {} }}",
                rng.below(HOT_COST_CAP)
            ),
            binds: None,
            reads: Some(name),
        });
    }
    let cost = rng.below(COSTS);
    let low = rng.below(spec.parts as u64 - 200);
    menu.push(Request::read(format!(
        "{{ fst(p) | p <- parts, snd(p) == {cost} }}"
    )));
    menu.push(Request::read(format!(
        "{{ p | p <- parts, {low} <= fst(p), fst(p) <= {} }}",
        low + 200
    )));
    menu
}

/// Request `index` of the workload's stream.
pub fn request(workload: Workload, seed: u64, index: u64) -> Request {
    let spec = workload.spec();
    let mut rng = Rng::keyed(seed, SALT_STREAM, index);
    match workload {
        Workload::PointRead => {
            let statement = match stratified(seed, index, 5) {
                0 => format!(
                    "{{ p | p <- parts, fst(p) == {} }}",
                    rng.below(spec.parts as u64)
                ),
                1 => {
                    let a = rng.below(spec.parts as u64);
                    format!(
                        "{{ snd(p) | p <- parts, {a} <= fst(p), fst(p) <= {} }}",
                        a + rng.below(16)
                    )
                }
                2 => format!(
                    "{{ fst(u) | u <- users, snd(u) == {}, fst(u) <= {} }}",
                    rng.below(spec.groups as u64),
                    rng.below(spec.users as u64)
                ),
                // the filter comes first, so the interpreter oracle does
                // not walk the whole cross product
                3 => format!(
                    "{{ (fst(u), snd(g)) | u <- users, fst(u) == {}, g <- groups, snd(u) == fst(g) }}",
                    rng.below(spec.users as u64)
                ),
                _ => format!(
                    "{{ (fst(p), snd(p)) | p <- parts, snd(p) == {}, fst(p) <= {} }}",
                    rng.below(COSTS),
                    rng.below(spec.parts as u64)
                ),
            };
            Request::read(statement)
        }
        Workload::Analytic => {
            let menu = analytic_menu(seed);
            Request::read(menu[stratified(seed, index, menu.len())].clone())
        }
        Workload::ReadWrite => {
            // exactly one request in ten is a write, so every seed offers
            // the same number of writes
            if index % 10 == 9 {
                let name = hot_name(rng.below(spec.hot_names as u64));
                Request {
                    statement: rebind(&name, 1 + rng.below(REBIND_OFFSETS), HOT_COST_CAP),
                    binds: Some(name),
                    reads: None,
                }
            } else {
                let menu = read_write_menu(seed);
                let read = index / 10 * 9 + index % 10;
                menu[stratified(seed, read, menu.len())].clone()
            }
        }
    }
}

const PROBE_NAME: &str = "scratch";

/// The initial binding of the write probe's name.
fn probe_initial(seed: u64) -> Request {
    let mut rng = Rng::keyed(seed, SALT_PROBE, u64::MAX);
    Request {
        statement: rebind(PROBE_NAME, 1 + rng.below(REBIND_OFFSETS), PROBE_COST_CAP),
        binds: Some(PROBE_NAME.to_string()),
        reads: None,
    }
}

/// Write `index` of the read-only workloads' write probe: rebinds of a
/// name no read touches, sent to a server of their own.
pub fn probe_request(seed: u64, index: u64) -> Request {
    let mut rng = Rng::keyed(seed, SALT_PROBE, index);
    Request {
        statement: rebind(PROBE_NAME, 1 + rng.below(REBIND_OFFSETS), PROBE_COST_CAP),
        binds: Some(PROBE_NAME.to_string()),
        reads: None,
    }
}

/// Arrival times (seconds from the phase start) for `n` requests at `rate`
/// per second: gaps drawn uniformly from half to one and a half times the
/// mean gap.  Random enough that arrivals do not lock onto the server's
/// own periods, and less bursty than Poisson, so short runs agree better.
pub fn arrivals(seed: u64, salt: u64, n: usize, rate: f64) -> Vec<f64> {
    let mut rng = Rng::keyed(seed, SALT_ARRIVALS, salt);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += (0.5 + rng.unit()) / rate;
            t
        })
        .collect()
}
