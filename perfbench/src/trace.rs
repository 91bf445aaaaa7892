//! The traced run: one sequential connection sends the request stream to a
//! fresh server, and after each reply an in-process `SessionCore` (built
//! from the same script exactly as `Server::load_db` builds it) replays the
//! request through each crate's public functions under a timer.  No span
//! is added inside the program; every span wraps a call made from here.
//!
//! The sequential stream runs in the same order on both sides, so the
//! in-process plan cache and arena evolve as the server's do.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use or_engine::{EngineInputs, ExecConfig, ExecStats, Executor};
use or_lang::ast::Expr;
use or_lang::interp::Env;
use or_lang::session::{ExecMode, QueryBudget, Route, Session, SessionCore, SessionResult};
use or_lang::{
    compile_query, infer_type, interpret_limited, parse_statement, plan_query, InterpLimits,
    Statement,
};
use or_nra::physical::PhysicalPlan;
use or_server::Json;

use crate::gen::Request;
use crate::http::exchange;
use crate::load::{Reply, Sample};
use crate::oracle::value_hash;

/// One timed call.  `request` is the shared request id.
struct Span {
    request: usize,
    name: &'static str,
    parent: &'static str,
    start_s: f64,
    dur_s: f64,
}

/// Sums over the traced requests (times in seconds).
#[derive(Debug, Default, Clone)]
pub struct Totals {
    pub requests: usize,
    pub roundtrip: f64,
    pub decode: f64,
    pub parse: f64,
    pub check: f64,
    pub plan: f64,
    pub lower: f64,
    pub exec: f64,
    pub interp: f64,
    pub eval: f64,
    pub unattributed: f64,
    pub commit: f64,
    pub encode: f64,
    pub response_bytes: f64,
    pub engine: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub fallbacks: u64,
    pub columnar_batches: u64,
    pub scalar_batches: u64,
    pub value_decodes: u64,
    pub morsels: u64,
    pub steals: u64,
    pub rows_out: u64,
    pub compactions: u64,
    pub arena_nodes: usize,
    /// In-process answers that differ from the server's, or fail where the
    /// server succeeded.
    pub mismatches: usize,
}

pub struct Traced {
    pub totals: Totals,
    pub samples: Vec<Sample>,
}

/// A request's standalone plan: the plan and the bindings feeding its scan
/// slots, with the time spent planning and lowering it.
struct Planned {
    plan: Option<(PhysicalPlan, Vec<String>)>,
    plan_s: f64,
    lower_s: f64,
}

struct Tracer {
    core: Arc<SessionCore>,
    config: ExecConfig,
    /// The core's values as an interpreter environment, rebuilt lazily
    /// after each commit.
    env: Option<Env>,
    epoch: Instant,
    spans: Vec<Span>,
    totals: Totals,
    /// Replays so far of reads and of writes; each kind alternates which
    /// of the phase calls and the real call goes first.
    turns: [usize; 2],
}

impl Tracer {
    /// Time `f` as a span of request `request`.
    fn span<T>(
        &mut self,
        request: usize,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let dur_s = start.elapsed().as_secs_f64();
        self.spans.push(Span {
            request,
            name,
            parent,
            start_s: start.duration_since(self.epoch).as_secs_f64(),
            dur_s,
        });
        (out, dur_s)
    }

    /// What `SessionCore::eval_statement`'s engine route does before
    /// executing: the direct multi-input planner, else single-binding
    /// morphism compilation and lowering.
    fn plan(&mut self, request: usize, expr: &Expr) -> Planned {
        let mut planned = Planned {
            plan: None,
            plan_s: 0.0,
            lower_s: 0.0,
        };
        if matches!(expr, Expr::Var(_)) {
            return planned;
        }
        let core = Arc::clone(&self.core);
        let (direct, plan_s) = self.span(request, "lang.plan", "lang.eval", || plan_query(expr));
        planned.plan_s = plan_s;
        if let Ok(pq) = direct {
            if pq.inputs.iter().all(|n| core.snapshot().get(n).is_some()) {
                planned.plan = Some((pq.plan, pq.inputs));
            }
            return planned;
        }
        let free = expr.free_vars();
        let [var] = free.as_slice() else {
            return planned;
        };
        if core.snapshot().get(var).is_none() {
            return planned;
        }
        let (morphism, compile_s) = self.span(request, "lang.plan", "lang.eval", || {
            compile_query(expr, var)
        });
        planned.plan_s += compile_s;
        let Ok(morphism) = morphism else {
            return planned;
        };
        let (lowered, lower_s) = self.span(request, "nra.lower", "lang.eval", || {
            or_nra::optimize::lower(&morphism)
        });
        planned.lower_s = lower_s;
        if let Ok(plan) = lowered {
            planned.plan = Some((plan, vec![var.clone()]));
        }
        planned
    }

    fn exec(
        &mut self,
        request: usize,
        plan: &PhysicalPlan,
        names: &[String],
    ) -> Option<(ExecStats, f64)> {
        let core = Arc::clone(&self.core);
        let config = self.config;
        let (result, exec_s) = self.span(request, "engine.exec", "lang.eval", || {
            let snapshot = core.snapshot();
            let mut inputs = EngineInputs::with_base(snapshot.arena().clone());
            for name in names {
                let published = snapshot.get(name)?;
                inputs.push_interned(published.rows(), published.ids());
            }
            Executor::new(config)
                .run_inputs_to_value_with_stats(plan, &inputs)
                .ok()
        });
        result.map(|(_, stats)| (stats, exec_s))
    }

    fn interp(&mut self, request: usize, expr: &Expr) -> f64 {
        let core = Arc::clone(&self.core);
        let env = self.env.take().unwrap_or_else(|| {
            core.bindings()
                .into_iter()
                .filter_map(|(name, _)| Some((name.clone(), core.value(&name)?.clone())))
                .collect()
        });
        let limits = InterpLimits::new(self.config.or_budget, self.config.time_budget);
        let (_, interp_s) = self.span(request, "lang.interp", "lang.eval", || {
            interpret_limited(expr, &env, &limits)
        });
        self.env = Some(env);
        interp_s
    }

    /// Replay one request in process.  Returns the value hash it produced.
    fn replay(&mut self, i: usize, request: &Request) -> Result<u64, String> {
        let body = request.body();
        let (statement, decode_s) = self.span(i, "server.decode", "inprocess", || {
            Json::parse(&body).ok().and_then(|json| {
                json.get("statement")
                    .and_then(Json::as_str)
                    .map(str::to_string)
            })
        });
        let statement = statement.ok_or("request body does not decode")?;
        // The serving work phase by phase, and the real serving call.  The
        // first of the two runs on colder caches, so they take turns going
        // first and the bias cancels over the run.
        let core = Arc::clone(&self.core);
        let config = self.config;
        let eval = |tracer: &mut Tracer| {
            tracer.span(i, "lang.eval", "inprocess", || {
                core.eval_statement(
                    &statement,
                    ExecMode::Engine,
                    config,
                    QueryBudget::unlimited(),
                )
            })
        };
        let kind = usize::from(request.binds.is_some());
        let eval_first = self.turns[kind] % 2 == 1;
        self.turns[kind] += 1;
        let early = eval_first.then(|| eval(self));
        let (parsed, parse_s) =
            self.span(i, "lang.parse", "lang.eval", || parse_statement(&statement));
        let expr = match parsed.map_err(|e| e.to_string())? {
            Statement::Bind(_, expr) | Statement::Expr(expr) => expr,
        };
        let (_, check_s) = self.span(i, "lang.check", "lang.eval", || {
            infer_type(&expr, &core.bindings())
        });
        let planned = self.plan(i, &expr);
        let executed = match &planned.plan {
            Some((plan, names)) => Some(
                self.exec(i, plan, names)
                    .ok_or("standalone execution failed")?,
            ),
            None => None,
        };
        let (evaluated, eval_s) = match early {
            Some(done) => done,
            None => eval(self),
        };
        let evaluated = evaluated.map_err(|e| format!("in-process `{statement}`: {e}"))?;
        let mut attributed = parse_s + check_s;
        let t = &mut self.totals;
        t.decode += decode_s;
        t.parse += parse_s;
        t.check += check_s;
        t.eval += eval_s;
        let cache_hit = matches!(
            evaluated.route,
            Route::Engine {
                cache_hit: true,
                ..
            }
        );
        if !cache_hit {
            attributed += planned.plan_s + planned.lower_s;
            t.plan += planned.plan_s;
            t.lower += planned.lower_s;
        }
        match &evaluated.route {
            Route::Engine {
                cache_hit,
                columnar_batches,
                scalar_fallback_batches,
            } => {
                let (stats, exec_s) =
                    executed.ok_or("the engine served a statement the tracer cannot plan")?;
                attributed += exec_s;
                t.engine += 1;
                t.cache_hits += u64::from(*cache_hit);
                t.cache_misses += u64::from(!*cache_hit);
                t.columnar_batches += columnar_batches;
                t.scalar_batches += scalar_fallback_batches;
                t.exec += exec_s;
                t.value_decodes += stats.value_decodes;
                t.morsels += stats.morsels;
                t.steals += stats.steals;
                t.rows_out += stats.rows as u64;
            }
            Route::Fallback { .. } => {
                t.fallbacks += 1;
                let interp_s = self.interp(i, &expr);
                attributed += interp_s;
                self.totals.interp += interp_s;
            }
            Route::Interp => {}
        }
        self.totals.unattributed += eval_s - attributed;
        // writes: clone the serving core and commit into the clone, as the
        // server's writer path does, while the old core is still shared
        let route = evaluated.route.clone();
        let result = if evaluated.bound.is_some() {
            let (committed, commit_s) = self.span(i, "lang.commit", "inprocess", || {
                let mut next = (*core).clone();
                let result = next.commit(evaluated);
                (result, next)
            });
            let (result, next) = committed;
            self.totals.commit += commit_s;
            let before = self.core.arena_nodes();
            self.core = Arc::new(next);
            self.env = None;
            if self.core.arena_nodes() < before {
                self.totals.compactions += 1;
            }
            result
        } else {
            SessionResult {
                value: evaluated.value,
                ty: evaluated.ty,
                bound: None,
            }
        };
        let route_name = match route {
            Route::Engine { .. } => "engine",
            Route::Interp => "interp",
            Route::Fallback { .. } => "fallback",
        };
        let (encoded, encode_s) = self.span(i, "server.encode", "inprocess", || {
            let bound = match &result.bound {
                Some(bound) => Json::str(bound.clone()),
                None => Json::Null,
            };
            Json::obj([
                ("ok", Json::Bool(true)),
                ("db", Json::str("bench")),
                ("value", Json::str(result.value.to_string())),
                ("type", Json::str(result.ty.to_string())),
                ("route", Json::str(route_name)),
                ("bound", bound),
            ])
            .to_string()
        });
        self.totals.encode += encode_s;
        self.totals.response_bytes += encoded.len() as f64;
        Ok(value_hash(&result.value))
    }
}

/// Load `script` exactly as `Server::load_db` does.
fn load_core(script: &str, config: ExecConfig) -> Result<SessionCore, String> {
    let mut session = Session::from_core(SessionCore::new(), ExecMode::Engine, config);
    session
        .run_script(script)
        .map_err(|e| format!("in-process load failed: {e}"))?;
    Ok(session.into_core())
}

/// Send `requests` one at a time to the fresh server at `addr`, replaying
/// each in process after its reply.  Writes the spans to `spans_path`.
pub fn traced_run(
    addr: SocketAddr,
    script: &str,
    requests: &[Request],
    epoch: Instant,
    spans_path: &Path,
) -> Result<Traced, String> {
    let config = ExecConfig::from_env();
    let mut tracer = Tracer {
        core: Arc::new(load_core(script, config)?),
        config,
        env: None,
        epoch,
        spans: Vec::new(),
        totals: Totals::default(),
        turns: [0; 2],
    };
    let mut samples = Vec::with_capacity(requests.len());
    for (i, request) in requests.iter().enumerate() {
        let body = request.body();
        let sent = epoch.elapsed().as_secs_f64();
        let (result, roundtrip_s) = tracer.span(i, "server.roundtrip", "request", || {
            exchange(addr, "POST", "/query", &body)
        });
        let reply = Reply::from_exchange(result);
        tracer.totals.roundtrip += roundtrip_s;
        tracer.totals.requests += 1;
        let replayed = tracer.replay(i, request);
        match (&reply, replayed) {
            (Reply::Ok { value_hash, .. }, Ok(hash)) if *value_hash == hash => {}
            (Reply::Failed(_), Err(_)) => {}
            (_, outcome) => {
                tracer.totals.mismatches += 1;
                if let Err(e) = outcome {
                    eprintln!("perfbench: traced request {i}: {e}");
                }
            }
        }
        samples.push(Sample {
            request: request.clone(),
            due: sent,
            sent,
            done: sent + roundtrip_s,
            lag: 0.0,
            reply,
        });
    }
    tracer.totals.arena_nodes = tracer.core.arena_nodes();
    write_spans(&tracer.spans, spans_path)?;
    Ok(Traced {
        totals: tracer.totals,
        samples,
    })
}

fn write_spans(spans: &[Span], path: &Path) -> Result<(), String> {
    let mut out = String::new();
    for span in spans {
        let _ = writeln!(
            out,
            r#"{{"request":{},"name":"{}","parent":"{}","start_us":{:.1},"dur_us":{:.1}}}"#,
            span.request,
            span.name,
            span.parent,
            span.start_s * 1e6,
            span.dur_s * 1e6
        );
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}
