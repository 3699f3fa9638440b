//! Sets of runs: `sweep` records one, `compare` judges two against the
//! bounds in `BENCHMARK.json`.
//!
//! A set is a JSON-lines file, one run per line:
//! `{"workload": "steady", "seed": 3, "trace": 0, "result": {...}}`, where
//! `result` is the run's result line.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::metrics::{median, quartiles, Better};
use crate::workload::Workload;

/// A parsed JSON value; just enough JSON for result lines and
/// `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value()?;
        parser.skip_space();
        if parser.at != parser.bytes.len() {
            return Err(format!("trailing characters at byte {}", parser.at));
        }
        Ok(value)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(value) => Some(*value),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(value) => Some(value),
            _ => None,
        }
    }

    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    pub fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.skip_space();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        let rest = &self.bytes[self.at..];
        for (word, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
        ] {
            if rest.starts_with(word.as_bytes()) {
                self.at += word.len();
                return Ok(value);
            }
        }
        match rest.first() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                if !self.close(b']') {
                    loop {
                        items.push(self.value()?);
                        if self.close(b']') {
                            break;
                        }
                        self.eat(b',')?;
                    }
                }
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                if !self.close(b'}') {
                    loop {
                        self.skip_space();
                        let name = self.string()?;
                        self.eat(b':')?;
                        fields.push((name, self.value()?));
                        if self.close(b'}') {
                            break;
                        }
                        self.eat(b',')?;
                    }
                }
                Ok(Json::Obj(fields))
            }
            _ => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|number| number.parse().ok())
                    .map(Json::Num)
                    .ok_or(format!("bad value at byte {start}"))
            }
        }
    }

    /// Consumes `byte` if it comes next.
    fn close(&mut self, byte: u8) -> bool {
        self.skip_space();
        let next = self.bytes.get(self.at) == Some(&byte);
        if next {
            self.at += 1;
        }
        next
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&byte) = self.bytes.get(self.at) else {
                return Err("unterminated string".to_string());
            };
            self.at += 1;
            match byte {
                b'"' => return Ok(out),
                b'\\' => {
                    let escaped = self
                        .bytes
                        .get(self.at)
                        .copied()
                        .ok_or("unterminated escape")?;
                    self.at += 1;
                    out.push(match escaped {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .ok_or("short \\u escape")?;
                            self.at += 4;
                            std::str::from_utf8(hex)
                                .ok()
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .and_then(char::from_u32)
                                .unwrap_or('\u{fffd}')
                        }
                        other => other as char,
                    });
                }
                _ => {
                    // Copy a whole UTF-8 sequence at once.
                    let start = self.at - 1;
                    while self.bytes.get(self.at).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.at += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.at])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }
}

/// `peachbench sweep`: runs every workload once per seed, round-robin (run
/// 1 of every workload, then run 2, ...), each run in a fresh child
/// process, one at a time, and appends each run to a set file.
pub fn sweep_main(args: &[String]) -> u8 {
    let mut seeds: Vec<u64> = (1..=10).collect();
    let (mut seconds, mut trace, mut out) = ("25".to_string(), "0".to_string(), None);
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let Some(value) = rest.next() else {
            eprintln!("peachbench sweep: {flag} needs a value");
            return 2;
        };
        match flag.as_str() {
            "--seeds" => match parse_seeds(value) {
                Some(parsed) => seeds = parsed,
                None => {
                    eprintln!("peachbench sweep: --seeds takes A-B or a comma list");
                    return 2;
                }
            },
            "--seconds" => seconds.clone_from(value),
            "--trace" => trace.clone_from(value),
            "--out" => out = Some(PathBuf::from(value)),
            other => {
                eprintln!("peachbench sweep: unknown argument {other}");
                return 2;
            }
        }
    }
    let Some(out) = out else {
        eprintln!(
            "usage: peachbench sweep [--seeds 1-10] [--seconds S] [--trace 0|1] --out SET.jsonl"
        );
        return 2;
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(error) => {
            eprintln!("peachbench sweep: {error}");
            return 2;
        }
    };
    let mut failures = 0;
    for seed in &seeds {
        for workload in &Workload::ALL {
            let seed = seed.to_string();
            let run = Command::new(&exe)
                .args([
                    "--workload",
                    workload.name(),
                    "--seed",
                    &seed,
                    "--seconds",
                    &seconds,
                    "--trace",
                    &trace,
                ])
                .stdin(Stdio::null())
                .output();
            let result = run.as_ref().ok().and_then(|output| {
                let stdout = String::from_utf8_lossy(&output.stdout);
                let last = stdout.lines().last()?;
                Json::parse(last).is_ok().then(|| last.to_string())
            });
            let ok = result.is_some() && run.as_ref().is_ok_and(|output| output.status.success());
            match &run {
                Ok(output) if !ok => eprint!("{}", String::from_utf8_lossy(&output.stderr)),
                Err(error) => eprintln!("peachbench sweep: {error}"),
                Ok(_) => {}
            }
            failures += usize::from(!ok);
            eprintln!(
                "{} seed {seed}: {}",
                workload.name(),
                if ok { "ok" } else { "FAILED" }
            );
            let result = result.unwrap_or_else(|| "null".to_string());
            let record = format!(
                "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {trace}, \"result\": {result}}}\n",
                workload.name()
            );
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&out)
                .and_then(|mut file| file.write_all(record.as_bytes()));
            if let Err(error) = appended {
                eprintln!("peachbench sweep: cannot write {}: {error}", out.display());
                return 2;
            }
        }
    }
    u8::from(failures > 0)
}

fn parse_seeds(text: &str) -> Option<Vec<u64>> {
    if let Some((first, last)) = text.split_once('-') {
        let (first, last): (u64, u64) = (first.parse().ok()?, last.parse().ok()?);
        return (first <= last).then(|| (first..=last).collect());
    }
    text.split(',').map(|seed| seed.parse().ok()).collect()
}

/// One metric's bound as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
struct Bound {
    higher_is_better: bool,
    bound: Option<f64>,
}

/// Finds `BENCHMARK.json` in the working directory or above it.
fn benchmark_file() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let candidate = dir.join("BENCHMARK.json");
        if candidate.is_file() {
            return Some(candidate);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn read_bounds(path: &Path) -> Result<BTreeMap<String, Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let json = Json::parse(&text)?;
    let mut bounds = BTreeMap::new();
    for group in ["end_to_end", "per_layer"] {
        for metric in json.get(group).map_or(&[][..], Json::items) {
            let name = metric
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            bounds.insert(
                name.to_string(),
                Bound {
                    higher_is_better: metric.get("better").and_then(Json::as_str)
                        == Some(Better::Higher.as_str()),
                    bound: metric.get("bound").and_then(Json::as_f64),
                },
            );
        }
    }
    Ok(bounds)
}

/// Every (workload, metric) value of a set, in first-seen order.
type SetValues = Vec<((String, String), Vec<f64>)>;

/// One set of runs: the metric values of its good runs, and how many runs
/// went wrong.
#[derive(Debug, Default)]
struct RunSet {
    values: SetValues,
    runs: usize,
    /// Runs that printed no result, reported `correct: false`, or failed
    /// campaigns. Their metrics are left out of `values`.
    bad: usize,
}

fn read_set(path: &Path) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_set(&text).map_err(|e| format!("{}:{e}", path.display()))
}

fn parse_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::default();
    for (number, line) in text
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("{}: {e}", number + 1))?;
        set.runs += 1;
        let workload = record.get("workload").and_then(Json::as_str).unwrap_or("?");
        let result = record.get("result");
        let good = result.is_some_and(|result| {
            result.get("correct") == Some(&Json::Bool(true))
                && result.get("failed").and_then(Json::as_f64) == Some(0.0)
        });
        let Some(metrics) = result
            .and_then(|result| result.get("metrics"))
            .filter(|_| good)
        else {
            set.bad += 1;
            continue;
        };
        for (name, metric) in metrics.fields() {
            let Some(value) = metric.get("value").and_then(Json::as_f64) else {
                continue;
            };
            let key = (workload.to_string(), name.clone());
            match set.values.iter_mut().find(|(have, _)| *have == key) {
                Some((_, column)) => column.push(value),
                None => set.values.push((key, vec![value])),
            }
        }
    }
    Ok(set)
}

/// `(median, first quartile, third quartile, spread)` of one column, where
/// spread is the interquartile distance over the median.
fn summary(values: &[f64]) -> (f64, f64, f64, f64) {
    let mid = median(values);
    let (q1, q3) = quartiles(values).unwrap_or((mid, mid));
    let spread = if q3 == q1 { 0.0 } else { (q3 - q1) / mid.abs() };
    (mid, q1, q3, spread)
}

/// A bounded metric's verdict: `unresolved` when either set spreads wider
/// than the bound, else `regression` when B is worse by more than the
/// bound, else `ok`.
fn verdict(bound: f64, spread_a: f64, spread_b: f64, worse: f64) -> &'static str {
    if spread_a > bound || spread_b > bound {
        "unresolved"
    } else if worse > bound {
        "regression"
    } else {
        "ok"
    }
}

/// `peachbench compare A.jsonl B.jsonl`: each set's count of bad runs, then
/// per (workload, metric) both sets' median, quartiles and spread, B's
/// change against A in the metric's worse direction, and a [`verdict`].
/// Exits 1 when B has more bad runs than A, or any bounded metric is not
/// `ok`.
pub fn compare_main(args: &[String]) -> u8 {
    let [a, b] = args else {
        eprintln!("usage: peachbench compare A.jsonl B.jsonl");
        return 2;
    };
    let bounds = match benchmark_file()
        .ok_or("BENCHMARK.json not found".to_string())
        .and_then(|path| read_bounds(&path))
    {
        Ok(bounds) => bounds,
        Err(error) => {
            eprintln!("peachbench compare: {error}");
            return 2;
        }
    };
    let (set_a, set_b) = match (read_set(Path::new(a)), read_set(Path::new(b))) {
        (Ok(set_a), Ok(set_b)) => (set_a, set_b),
        (Err(error), _) | (_, Err(error)) => {
            eprintln!("peachbench compare: {error}");
            return 2;
        }
    };
    for (name, set) in [("A", &set_a), ("B", &set_b)] {
        println!(
            "set {name}: {} runs, {} without a correct result or with failed campaigns",
            set.runs, set.bad
        );
    }
    let mut bad = usize::from(set_b.bad > set_a.bad);
    println!(
        "{:<11} {:<28} {:>14} {:>29} {:>7} {:>14} {:>7} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "median A",
        "quartiles A",
        "spread",
        "median B",
        "spread",
        "worse",
        "bound"
    );
    for ((workload, metric), column_a) in &set_a.values {
        let Some((_, column_b)) = set_b
            .values
            .iter()
            .find(|(key, _)| key.0 == *workload && key.1 == *metric)
        else {
            continue;
        };
        let (mid_a, q1_a, q3_a, spread_a) = summary(column_a);
        let (mid_b, _, _, spread_b) = summary(column_b);
        let rule = bounds.get(metric);
        let change = (mid_b - mid_a) / mid_a.abs();
        let worse = match rule {
            Some(rule) if rule.higher_is_better => -change,
            _ => change,
        };
        let worse = if mid_a == mid_b { 0.0 } else { worse };
        let (bound_text, verdict) = match rule.and_then(|rule| rule.bound) {
            None => ("-".to_string(), "-"),
            Some(bound) => {
                let verdict = verdict(bound, spread_a, spread_b, worse);
                if verdict != "ok" {
                    bad += 1;
                }
                (format!("{bound}"), verdict)
            }
        };
        println!(
            "{workload:<11} {metric:<28} {mid_a:>14.6} [{q1_a:>13.6},{q3_a:>13.6}] {spread_a:>7.4} {mid_b:>14.6} {spread_b:>7.4} {worse:>8.4} {bound_text:>6}  {verdict}"
        );
    }
    u8::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, correct: bool, failed: u64, paths: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"trace\": 0, \"result\": \
             {{\"correct\": {correct}, \"attempted\": 3, \"failed\": {failed}, \
             \"metrics\": {{\"final_paths\": {{\"value\": {paths}, \"unit\": \"paths\"}}}}}}}}"
        )
    }

    #[test]
    fn bad_runs_are_counted_and_their_metrics_left_out() {
        let text = [
            run("steady", true, 0, 1600.0),
            run("steady", false, 0, 900.0),
            run("steady", true, 1, 800.0),
            "{\"workload\": \"steady\", \"seed\": 4, \"trace\": 0, \"result\": null}".to_string(),
            run("steady", true, 0, 1650.0),
        ]
        .join("\n");
        let set = parse_set(&text).expect("a valid set");
        assert_eq!((set.runs, set.bad), (5, 3));
        assert_eq!(
            set.values,
            vec![(
                ("steady".to_string(), "final_paths".to_string()),
                vec![1600.0, 1650.0]
            )]
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        assert_eq!(verdict(0.25, 0.4, 0.1, 0.0), "unresolved");
        assert_eq!(verdict(0.25, 0.1, 0.4, -0.5), "unresolved");
        assert_eq!(verdict(0.25, 0.1, 0.1, 0.3), "regression");
        assert_eq!(verdict(0.25, 0.1, 0.1, 0.2), "ok");
    }
}
