//! The answer oracle: the reference interpreter (`ExecMode::Interp`) on a
//! core built from the same generated script the server loaded.
//!
//! Rebind statements depend only on `parts`, never on earlier writes, so a
//! binding's version is simply the statement that produced it.  A read that
//! overlapped writes is accepted against any version that could have been
//! committed during its lifetime.

use std::collections::HashMap;

use or_engine::ExecConfig;
use or_lang::session::{Evaluated, ExecMode, QueryBudget, Session, SessionCore};
use or_server::Json;

use crate::gen::Request;
use crate::http::fnv;
use crate::load::{Reply, Sample};

pub struct Oracle {
    core: SessionCore,
    /// The version each rebound name currently holds in `core`.
    current: HashMap<String, String>,
    /// The initial version of each rebound name (its script statement).
    initial: HashMap<String, String>,
    /// Interpreted rebinds, by statement.
    rebinds: HashMap<String, Evaluated>,
    /// Expected value hashes by (statement, version of the name it reads).
    expected: HashMap<(String, String), u64>,
}

/// A write the timeline knows committed somewhere in `[sent, done]`.
struct Write<'a> {
    sent: f64,
    done: f64,
    statement: &'a str,
}

fn interpret(core: &SessionCore, statement: &str) -> Result<Evaluated, String> {
    core.eval_statement(
        statement,
        ExecMode::Interp,
        ExecConfig::default(),
        QueryBudget::unlimited(),
    )
    .map_err(|e| format!("oracle failed on `{statement}`: {e}"))
}

/// The hash the server's response would carry for `value`: its display
/// string, JSON-escaped, without the quotes.
pub fn value_hash(value: &or_object::Value) -> u64 {
    let encoded = Json::str(value.to_string()).to_string();
    fnv(&encoded.as_bytes()[1..encoded.len() - 1])
}

impl Oracle {
    /// Interpret `script` and remember the initial versions of the rebound
    /// names (`initial` holds their binding statements).
    pub fn load(script: &str, initial: &[Request]) -> Result<Oracle, String> {
        let mut session =
            Session::from_core(SessionCore::new(), ExecMode::Interp, ExecConfig::default());
        session
            .run_script(script)
            .map_err(|e| format!("oracle cannot load the database: {e}"))?;
        let initial: HashMap<String, String> = initial
            .iter()
            .filter_map(|r| Some((r.binds.clone()?, r.statement.clone())))
            .collect();
        Ok(Oracle {
            core: session.into_core(),
            current: initial.clone(),
            initial,
            rebinds: HashMap::new(),
            expected: HashMap::new(),
        })
    }

    fn interpret(&self, statement: &str) -> Result<Evaluated, String> {
        interpret(&self.core, statement)
    }

    /// Interpret, on `threads` threads, every statement among `requests`
    /// whose answer does not depend on a rebound name's version and is not
    /// known yet.  Rebinds of names that reads depend on are kept, since
    /// they become versions to check those reads against.
    pub fn prefetch(&mut self, requests: &[&Request], threads: usize) -> Result<(), String> {
        let read_names: Vec<&str> = requests.iter().filter_map(|r| r.reads.as_deref()).collect();
        let mut todo: Vec<(&str, bool)> = requests
            .iter()
            .filter(|r| r.reads.is_none())
            .filter(|r| {
                !self
                    .expected
                    .contains_key(&(r.statement.clone(), String::new()))
            })
            .map(|r| {
                let keep = r
                    .binds
                    .as_deref()
                    .is_some_and(|name| read_names.contains(&name));
                (r.statement.as_str(), keep)
            })
            .collect();
        todo.sort_unstable();
        todo.dedup();
        if todo.is_empty() {
            return Ok(());
        }
        let core = &self.core;
        let chunk = todo.len().div_ceil(threads.max(1));
        type Done = (String, Result<(u64, Option<Evaluated>), String>);
        let done: Vec<Vec<Done>> = std::thread::scope(|scope| {
            let workers: Vec<_> = todo
                .chunks(chunk)
                .map(|statements| {
                    scope.spawn(move || {
                        statements
                            .iter()
                            .map(|&(s, keep)| {
                                let result = interpret(core, s)
                                    .map(|e| (value_hash(&e.value), keep.then_some(e)));
                                (s.to_string(), result)
                            })
                            .collect()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("oracle worker panicked"))
                .collect()
        });
        for (statement, result) in done.into_iter().flatten() {
            let (hash, evaluated) = result?;
            if let Some(evaluated) = evaluated {
                self.rebinds.insert(statement.clone(), evaluated);
            }
            self.expected.insert((statement, String::new()), hash);
        }
        Ok(())
    }

    /// The expected value hash of `request`, with its read name (if any)
    /// bound to `version`.
    fn expect(&mut self, request: &Request, version: &str) -> Result<u64, String> {
        let key = (request.statement.clone(), version.to_string());
        if let Some(&hash) = self.expected.get(&key) {
            return Ok(hash);
        }
        if let Some(name) = &request.reads {
            if self.current.get(name).map(String::as_str) != Some(version) {
                if !self.rebinds.contains_key(version) {
                    let evaluated = self.interpret(version)?;
                    self.rebinds.insert(version.to_string(), evaluated);
                }
                self.core.commit(self.rebinds[version].clone());
                self.current.insert(name.clone(), version.to_string());
            }
        }
        let hash = value_hash(&self.interpret(&request.statement)?.value);
        self.expected.insert(key, hash);
        Ok(hash)
    }

    /// Check every sample of one server's timeline.  Returns how many
    /// answers were wrong, with a few examples.
    pub fn check(&mut self, samples: &[&Sample]) -> Result<(usize, Vec<String>), String> {
        let mut writes: HashMap<&str, Vec<Write>> = HashMap::new();
        for s in samples {
            if let (Some(name), Reply::Ok { .. }) = (&s.request.binds, &s.reply) {
                writes.entry(name.as_str()).or_default().push(Write {
                    sent: s.sent,
                    done: s.done,
                    statement: &s.request.statement,
                });
            }
        }
        let mut wrong = 0;
        let mut examples = Vec::new();
        for s in samples {
            let Reply::Ok { value_hash, .. } = s.reply else {
                continue;
            };
            let versions = match &s.request.reads {
                Some(name) => {
                    self.candidates(name, writes.get(name.as_str()).map_or(&[], |w| w), s)
                }
                None => vec![String::new()],
            };
            let mut matched = false;
            for version in &versions {
                if self.expect(&s.request, version)? == value_hash {
                    matched = true;
                    break;
                }
            }
            if !matched {
                wrong += 1;
                if examples.len() < 3 {
                    examples.push(format!("wrong answer to `{}`", s.request.statement));
                }
            }
        }
        Ok((wrong, examples))
    }

    /// Versions of `name` the read `s` may have seen: every successful
    /// write that could have committed before the read's snapshot and was
    /// not certainly overwritten before the read was sent, plus the initial
    /// binding while no write had certainly committed.
    fn candidates(&self, name: &str, writes: &[Write], s: &Sample) -> Vec<String> {
        let mut out = Vec::new();
        if !writes.iter().any(|w| w.done <= s.sent) {
            out.push(self.initial[name].clone());
        }
        for w in writes {
            let could_precede = w.sent < s.done;
            let overwritten = writes
                .iter()
                .any(|later| later.sent >= w.done && later.done <= s.sent);
            if could_precede && !overwritten && !out.iter().any(|v| v == w.statement) {
                out.push(w.statement.to_string());
            }
        }
        out
    }
}
