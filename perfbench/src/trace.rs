//! The traced run's two records: host spans the benchmark takes around
//! its own layer calls, and virtual self time per layer from the
//! observability recorder's spans.

use std::fmt::Write as _;
use std::time::Instant;

use shrimp_obs::{breakdown, Layer, MsgId, SpanRec};

/// One host-time span around a layer call the benchmark made.
#[derive(Debug, Clone)]
pub struct HostSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Host spans of one workload run (one pass), kept in memory until the
/// benchmark exits.
#[derive(Debug, Clone)]
pub struct HostTrace {
    pub run_id: String,
    epoch: Instant,
    pub spans: Vec<HostSpan>,
    open: Vec<usize>,
}

impl HostTrace {
    /// Spans time from `epoch`, shared by every run of the process so
    /// that runs line up on one timeline.
    pub fn new(run_id: String, epoch: Instant) -> HostTrace {
        HostTrace {
            run_id,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(HostSpan {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = end_ns;
    }

    /// One JSON object per span and line.
    pub fn render_jsonl(&self, out: &mut String) {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\": \"{}\", \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            );
        }
    }
}

/// Mean virtual self time per message of each layer below the user
/// libraries, in µs: for every message, the conservation breakdown gives
/// each elementary interval to its innermost covering span; a layer's
/// self time is the sum of its intervals, averaged over the messages
/// that crossed the layer. Layers no message crossed read 0.
pub fn self_time_us(spans: &[SpanRec]) -> Vec<(Layer, f64)> {
    let mut by_msg: Vec<&SpanRec> = spans.iter().filter(|s| s.msg.is_some()).collect();
    by_msg.sort_by_key(|s| s.msg);
    let mut total_ps = [0u64; 7];
    let mut msgs = [0u64; 7];
    let mut one: Vec<SpanRec> = Vec::new();
    let mut i = 0;
    while i < by_msg.len() {
        let msg: MsgId = by_msg[i].msg;
        one.clear();
        while i < by_msg.len() && by_msg[i].msg == msg {
            one.push(by_msg[i].clone());
            i += 1;
        }
        let b = breakdown(&one, msg).expect("the message has spans");
        let mut seen = [false; 7];
        for seg in &b.segments {
            if let Some(layer) = seg.layer {
                let d = layer.depth() as usize;
                total_ps[d] += seg.dur.as_ps();
                seen[d] = true;
            }
        }
        for (d, s) in seen.iter().enumerate() {
            msgs[d] += *s as u64;
        }
    }
    Layer::ALL
        .iter()
        .map(|&l| {
            let d = l.depth() as usize;
            let mean_ps = total_ps[d] as f64 / msgs[d].max(1) as f64;
            (l, mean_ps / 1e6)
        })
        .collect()
}

/// Mean virtual self time per user-library call (`Layer::User` span), in
/// µs: the span's duration minus the part of it that lower-layer spans
/// on the same node cover. Library spans of sockets and collectives
/// carry no message id, so the per-message breakdown cannot place them;
/// this attributes them by node instead. 0 when no library span exists.
pub fn user_self_us(spans: &[SpanRec]) -> f64 {
    let nodes = spans.iter().map(|s| s.node + 1).max().unwrap_or(0);
    // Per node: the union of lower-layer span intervals, sorted.
    let mut lower: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nodes];
    for s in spans {
        if !matches!(s.layer, Layer::User | Layer::Service) {
            lower[s.node].push((s.start.as_ps(), s.end.as_ps()));
        }
    }
    for iv in &mut lower {
        iv.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
        for &(a, b) in iv.iter() {
            match merged.last_mut() {
                Some(last) if a <= last.1 => last.1 = last.1.max(b),
                _ => merged.push((a, b)),
            }
        }
        *iv = merged;
    }
    let (mut total_ps, mut calls) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.layer == Layer::User) {
        let (a, b) = (s.start.as_ps(), s.end.as_ps());
        let iv = &lower[s.node];
        let first = iv.partition_point(|&(_, end)| end <= a);
        let covered: u64 = iv[first..]
            .iter()
            .take_while(|&&(start, _)| start < b)
            .map(|&(start, end)| end.min(b) - start.max(a))
            .sum();
        total_ps += (b - a) - covered;
        calls += 1;
    }
    total_ps as f64 / calls.max(1) as f64 / 1e6
}
