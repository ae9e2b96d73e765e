//! In-memory spans around the calls into each layer, written out when the
//! traced run ends. The program itself is not instrumented: every span
//! starts and ends in the benchmark's own code.

use std::path::Path;
use std::time::Instant;

use crate::json::Json;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<SpanId>,
    pub name: &'static str,
    /// Dispatch-order batch the span belongs to (the identifier spans of
    /// one request share).
    pub batch: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Not timed itself: an interval inside its parent sized from a
    /// separately timed call of the same work (the ID draw that a
    /// `pool_features_into` call repeats internally).
    pub imputed: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct SpanLog {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(workload: &str) -> SpanLog {
        SpanLog {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span now; it ends at [`SpanLog::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        batch: Option<usize>,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            name,
            batch,
            start_ns,
            end_ns: start_ns,
            imputed: false,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) -> u64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration_ns()
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        batch: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.open(name, parent, batch);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Adds an imputed child at the start of `parent`, `ns` long (clipped
    /// to the parent).
    pub fn impute(&mut self, name: &'static str, parent: SpanId, ns: u64) {
        let p = &self.spans[parent];
        let (start_ns, batch) = (p.start_ns, p.batch);
        let end_ns = start_ns + ns.min(p.duration_ns());
        self.spans.push(Span {
            parent: Some(parent),
            name,
            batch,
            start_ns,
            end_ns,
            imputed: true,
        });
    }

    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span: its duration minus the part its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Total self time of the timed (not imputed) spans called `name`.
    pub fn self_total_ns(&self, name: &str) -> u64 {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name && !s.imputed)
            .map(|(_, ns)| ns)
            .sum()
    }

    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let num = |v: u64| Json::Num(v as f64);
        let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::Num(v as f64));
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", num(id as u64)),
                    ("parent", opt(s.parent)),
                    ("name", Json::str(s.name)),
                    ("workload", Json::str(self.workload.as_str())),
                    ("batch", opt(s.batch)),
                    ("start_ns", num(s.start_ns)),
                    ("end_ns", num(s.end_ns)),
                    ("imputed", Json::Bool(s.imputed)),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, Json::Arr(spans).render() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::new("w");
        let root = log.open("serve", None, None);
        let batch = log.open("batch", Some(root), Some(0));
        let (_, gather) = log.time("table_gather", Some(batch), Some(0), || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        log.impute("draw_ids", gather, 1_000_000);
        log.close(batch);
        log.close(root);

        let own = log.self_ns();
        let g = log.get(gather).duration_ns();
        assert!(g >= 4_000_000);
        assert_eq!(own[gather], g - 1_000_000, "imputed child is subtracted");
        assert_eq!(own[batch], log.get(batch).duration_ns() - g);
        assert_eq!(log.self_total_ns("table_gather"), g - 1_000_000);
        assert_eq!(
            log.self_total_ns("draw_ids"),
            0,
            "imputed spans are not busy time"
        );
        // Self times of a tree sum to the root's duration.
        assert_eq!(own.iter().sum::<u64>(), log.get(root).duration_ns());
        // An imputed child never outgrows its parent.
        log.impute("draw_ids", gather, u64::MAX);
        assert_eq!(log.get(log.len() - 1).duration_ns(), g);
    }

    #[test]
    fn dump_is_one_json_array_of_spans() {
        let mut log = SpanLog::new("table_closed");
        let root = log.open("serve", None, None);
        log.time("top_mlp", Some(root), Some(3), || ());
        log.close(root);
        let path = crate::out_dir().join("spans_unit_test.json");
        log.write_json(&path).unwrap();
        let parsed = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let spans = parsed.as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("name").unwrap().as_str(), Some("top_mlp"));
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[1].get("batch").unwrap().as_f64(), Some(3.0));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(
            spans[1].get("workload").unwrap().as_str(),
            Some("table_closed")
        );
    }
}
