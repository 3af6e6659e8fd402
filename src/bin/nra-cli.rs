//! `nra-cli` — an interactive shell over the nested relational engine.
//!
//! ```sh
//! cargo run --release --bin nra-cli
//! ```
//!
//! Meta-commands (everything else is executed as SQL):
//!
//! ```text
//! :help                         this text
//! :tpch <scale>                 generate TPC-H-shaped data (e.g. :tpch 0.05)
//! :tbl <table> <file>           load a dbgen .tbl file into an existing table
//! :create <t> (a int, b str not null, ...) [pk(a,...)]
//! :load <table> <file.csv>      load a CSV (header row) into a table
//! :export <table> <file.csv>    dump a table to CSV
//! :tables                       list tables with row counts
//! :engine <auto|original|optimized|bottomup|pushdown|positive|baseline|oracle>
//!                               (or any engine name nra_sys.queries prints)
//! :timeout <ms|off>             cancel queries cooperatively after a deadline
//! :memlimit <bytes|off>         per-query memory budget for governed allocations
//! :explain <sql>                the plan :engine builds + each arm's tree expression
//! :analyze <sql>                EXPLAIN ANALYZE: the plan that ran + measured stats
//! :trace <sql>                  query-lifecycle trace (parse/bind/plan/execute), also of a failed query
//! :metrics                      process-cumulative metrics (Prometheus text)
//! :ps                           currently-running queries with live progress
//! :history [n]                  last n completed queries (whole ring by default)
//! :timing on|off                print execution time per query
//! :quit
//! ```
//!
//! The reserved `nra_sys` schema exposes the same introspection state to
//! plain SQL: `select * from nra_sys.queries` (completed ring),
//! `nra_sys.running`, `nra_sys.metrics`, `nra_sys.table_stats` and
//! `nra_sys.operators`.
//!
//! `ANALYZE <table>` (plain SQL, no colon) gathers per-column statistics
//! for the planner's cardinality estimator.
//!
//! Batch mode (non-interactive, for scripts and CI):
//!
//! ```sh
//! nra-cli [--paper | --tpch <scale>] --explain-analyze "<sql>"
//! nra-cli [--paper | --tpch <scale>] --trace ["<sql>"]
//! ```
//!
//! `--paper` loads the Section 2 running example (`R`/`S`/`T`); with it
//! the SQL argument may be omitted and defaults to the paper's Query Q.
//!
//! `--db <dir>` (interactive or batch) opens a durable database rooted
//! at `dir` — catalog mutations are write-ahead logged and survive
//! restarts; `:checkpoint` folds the log into a snapshot.

use std::io::{BufRead, BufReader, Write};
use std::time::Instant;

use nra::storage::csv::{read_rows, write_relation, CsvOptions};
use nra::storage::iosim::{self, IoConfig};
use nra::storage::{Column, ColumnType, Schema, Table};
use nra::{Database, QueryOptions, Session, Strategy};

/// The interactive shell drives one [`Session`]: `:engine`, `:timeout`
/// and `:memlimit` set its defaults ([`Session::set`]), and every SQL
/// line executes through [`Session::execute`].
struct Shell {
    session: Session,
    timing: bool,
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--db <dir>` opens (or creates) a durable database; it composes
    // with both the interactive shell and batch mode.
    let mut durable: Option<Database> = None;
    if let Some(pos) = args.iter().position(|a| a == "--db") {
        if pos + 1 >= args.len() {
            eprintln!("error: --db takes a directory path");
            std::process::exit(1);
        }
        let path = args.remove(pos + 1);
        args.remove(pos);
        match Database::open(&path) {
            Ok(db) => {
                print_recovery(&path, &db);
                durable = Some(db);
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    if !args.is_empty() {
        if let Err(e) = run_batch(&args, durable) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let mut shell = Shell {
        session: durable.unwrap_or_default().connect(),
        timing: false,
    };
    println!("nra-cli — nested relational subquery processor (:help for commands)");
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        print!("nra> ");
        std::io::stdout().flush().ok();
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let input = line.trim();
        if input.is_empty() {
            continue;
        }
        if input == ":quit" || input == ":q" {
            break;
        }
        if let Err(e) = shell.dispatch(input) {
            eprintln!("error: {e}");
        }
    }
}

/// Announce what `Database::open` recovered (tables, LSN watermarks,
/// and any degradation such as a truncated torn tail).
fn print_recovery(path: &str, db: &Database) {
    if let (Some(report), Some(info)) = (db.recovery(), db.durability()) {
        println!(
            "opened durable database at {path}: {} table(s), last lsn {}, \
             snapshot lsn {}, replayed {} record(s)",
            db.catalog().table_names().len(),
            info.last_lsn,
            info.snapshot_lsn,
            report.replayed,
        );
        for msg in &report.messages {
            println!("recovery: {msg}");
        }
    }
}

/// `nra-cli [--db <dir> | --paper | --tpch <scale>] (--explain-analyze | --trace) ["<sql>"]`
fn run_batch(args: &[String], durable: Option<Database>) -> Result<(), String> {
    let mut db: Option<Database> = durable;
    let mut mode: Option<&str> = None;
    let mut sql: Option<String> = None;
    let mut paper = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--paper" => {
                db = Some(Database::from_catalog(
                    nra::tpch::paper_example::rst_catalog(),
                ));
                paper = true;
            }
            "--tpch" => {
                i += 1;
                let scale: f64 = args
                    .get(i)
                    .ok_or("--tpch takes a scale factor")?
                    .parse()
                    .map_err(|_| "--tpch takes a numeric scale factor".to_string())?;
                db = Some(Database::from_catalog(nra::tpch::generate(
                    &nra::tpch::TpchConfig::scaled(scale),
                )));
            }
            m @ ("--explain-analyze" | "--trace") => {
                mode = Some(m);
                if let Some(next) = args.get(i + 1) {
                    if !next.starts_with("--") {
                        sql = Some(next.clone());
                        i += 1;
                    }
                }
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}`; usage: nra-cli [--db <dir> | --paper | \
                     --tpch <scale>] (--explain-analyze | --trace) [\"<sql>\"]"
                ))
            }
        }
        i += 1;
    }
    let mode = mode.ok_or("batch mode needs --explain-analyze or --trace")?;
    let db = db.unwrap_or_else(|| {
        paper = true;
        Database::from_catalog(nra::tpch::paper_example::rst_catalog())
    });
    let sql = match sql {
        Some(s) => s,
        None if paper => nra::tpch::paper_example::QUERY_Q.to_string(),
        None => return Err(format!("{mode} needs a SQL argument")),
    };
    let session = db.connect();
    let original = QueryOptions::new().strategy(Strategy::Original);
    match mode {
        "--explain-analyze" => analyze(&session, &sql, original)?,
        _ => trace(&session, &sql, QueryOptions::new())?,
    }
    Ok(())
}

impl Shell {
    fn dispatch(&mut self, input: &str) -> Result<(), String> {
        if let Some(rest) = input.strip_prefix(':') {
            let (cmd, args) = rest.split_once(' ').unwrap_or((rest, ""));
            let args = args.trim();
            match cmd {
                "help" | "h" => {
                    println!("{}", HELP);
                    Ok(())
                }
                "tpch" => self.cmd_tpch(args),
                "tbl" => self.cmd_tbl(args),
                "create" => self.cmd_create(args),
                "load" => self.cmd_load(args),
                "export" => self.cmd_export(args),
                "tables" => {
                    let cat = self.db().catalog();
                    for name in cat.table_names() {
                        let t = cat.table(name).map_err(err)?;
                        println!("{name}: {} rows, {} columns", t.len(), t.schema().len());
                    }
                    Ok(())
                }
                "checkpoint" => {
                    let lsn = self.db().checkpoint().map_err(err)?;
                    println!("checkpoint written at lsn {lsn}");
                    Ok(())
                }
                "engine" => self.cmd_set("engine", args),
                "timeout" => self.cmd_set("timeout_ms", args),
                "memlimit" => self.cmd_set("mem_limit", args),
                "explain" => self.cmd_explain(args),
                "analyze" => analyze(&self.session, args, self.opts()),
                "trace" => trace(&self.session, args, self.opts()),
                "metrics" => {
                    let snap = nra::obs::metrics::global().snapshot();
                    if snap.is_empty() {
                        println!("(no metrics recorded yet — run some queries first)");
                    } else {
                        print!("{}", snap.render_prometheus());
                    }
                    Ok(())
                }
                "timing" => {
                    self.timing = args.eq_ignore_ascii_case("on");
                    println!("timing {}", if self.timing { "on" } else { "off" });
                    Ok(())
                }
                "ps" => {
                    let running = self.db().queries().running();
                    if running.is_empty() {
                        println!("(no queries running)");
                    }
                    for q in running {
                        let s = q.progress.snapshot();
                        println!(
                            "{:>4}  {:>3}%  {:>8} ms  {}/{} rows  [{}]  {}",
                            q.id,
                            s.percent,
                            s.elapsed_ms,
                            s.rows_processed,
                            s.rows_estimated,
                            s.phase,
                            q.sql
                        );
                    }
                    Ok(())
                }
                "history" => {
                    let mut completed = self.db().queries().completed();
                    if let Ok(n) = args.trim().parse::<usize>() {
                        let skip = completed.len().saturating_sub(n);
                        completed.drain(..skip);
                    }
                    if completed.is_empty() {
                        println!("(no completed queries yet)");
                    }
                    for r in completed {
                        println!(
                            "{:>4}  {:<18}  {:>8} ms  {:>8} rows  [{}]  {}",
                            r.id, r.outcome, r.wall_ms, r.rows, r.strategy, r.sql
                        );
                    }
                    Ok(())
                }
                other => Err(format!("unknown command `:{other}` (try :help)")),
            }
        } else {
            self.run_sql(input)
        }
    }

    /// The shared database behind the shell's session.
    fn db(&self) -> &Database {
        self.session.database()
    }

    /// The session's standing options (engine and resource limits), for
    /// the commands that add to them.
    fn opts(&self) -> QueryOptions {
        self.session.defaults().clone()
    }

    fn run_sql(&self, sql: &str) -> Result<(), String> {
        let start = Instant::now();
        let out = self.session.execute(sql).map_err(err)?;
        let elapsed = start.elapsed();
        // Catalog statements (`ANALYZE <table>`) return a summary instead
        // of rows; plain queries never set `plan` without a profile.
        match &out.plan {
            Some(plan) => print!("{plan}"),
            None => println!("{}", out.rows),
        }
        if self.timing {
            println!("({elapsed:.2?})");
        }
        Ok(())
    }

    fn cmd_tpch(&mut self, args: &str) -> Result<(), String> {
        let scale: f64 = args
            .parse()
            .map_err(|_| ":tpch takes a scale, e.g. :tpch 0.05")?;
        let cat = nra::tpch::generate(&nra::tpch::TpchConfig::scaled(scale));
        for name in cat.table_names() {
            println!("{name}: {} rows", cat.table(name).unwrap().len());
        }
        let defaults = self.opts();
        self.session = Database::from_catalog(cat).connect();
        self.session.set_defaults(defaults);
        Ok(())
    }

    fn cmd_tbl(&mut self, args: &str) -> Result<(), String> {
        let (table, path) = args
            .split_once(' ')
            .ok_or(":tbl takes a table name and a file path")?;
        let file = std::fs::File::open(path.trim()).map_err(err)?;
        let schema = self
            .db()
            .catalog()
            .table(table)
            .map_err(err)?
            .schema()
            .clone();
        let rows = read_rows(BufReader::new(file), &schema, &CsvOptions::tbl()).map_err(err)?;
        let n = rows.len();
        self.db().insert(table, rows).map_err(err)?;
        println!("loaded {n} rows into {table}");
        Ok(())
    }

    /// `:create t (a int, b str not null) pk(a)`
    fn cmd_create(&mut self, args: &str) -> Result<(), String> {
        let open = args.find('(').ok_or("expected `(col type, ...)`")?;
        let name = args[..open].trim().to_string();
        // Split off a trailing pk(...) clause if present.
        let (cols_part, pk_part) = args[open + 1..]
            .split_once(')')
            .map(|(cols, rest)| (cols, rest.trim()))
            .ok_or("unbalanced parentheses")?;
        let mut columns = Vec::new();
        for spec in cols_part.split(',') {
            let mut words = spec.split_whitespace();
            let col = words.next().ok_or("empty column spec")?;
            let ty = match words.next().unwrap_or("int").to_ascii_lowercase().as_str() {
                "int" | "integer" => ColumnType::Int,
                "str" | "string" | "text" | "varchar" => ColumnType::Str,
                "decimal" | "money" => ColumnType::Decimal,
                "float" | "double" => ColumnType::Float,
                "date" => ColumnType::Date,
                "bool" | "boolean" => ColumnType::Bool,
                other => return Err(format!("unknown type `{other}`")),
            };
            let rest: Vec<String> = words.map(|w| w.to_ascii_lowercase()).collect();
            let not_null = rest.join(" ").contains("not null");
            columns.push(if not_null {
                Column::not_null(col, ty)
            } else {
                Column::new(col, ty)
            });
        }
        let mut table = Table::new(&name, Schema::new(columns));
        if let Some(pk) = pk_part
            .strip_prefix("pk(")
            .and_then(|s| s.strip_suffix(')'))
        {
            let cols: Vec<&str> = pk.split(',').map(str::trim).collect();
            table.set_primary_key(&cols).map_err(err)?;
        }
        self.db().add_table(table).map_err(err)?;
        println!("created {name}");
        Ok(())
    }

    fn cmd_load(&mut self, args: &str) -> Result<(), String> {
        let (table, path) = args
            .split_once(' ')
            .ok_or(":load takes a table name and a file path")?;
        let file = std::fs::File::open(path.trim()).map_err(err)?;
        let schema = self
            .db()
            .catalog()
            .table(table)
            .map_err(err)?
            .schema()
            .clone();
        let rows = read_rows(BufReader::new(file), &schema, &CsvOptions::default()).map_err(err)?;
        let n = rows.len();
        self.db().insert(table, rows).map_err(err)?;
        println!("loaded {n} rows into {table}");
        Ok(())
    }

    fn cmd_export(&mut self, args: &str) -> Result<(), String> {
        let (table, path) = args
            .split_once(' ')
            .ok_or(":export takes a table name and a file path")?;
        let rel = self
            .db()
            .catalog()
            .table(table)
            .map_err(err)?
            .data()
            .clone();
        let file = std::fs::File::create(path.trim()).map_err(err)?;
        write_relation(file, &rel, &CsvOptions::default()).map_err(err)?;
        println!("wrote {} rows to {}", rel.len(), path.trim());
        Ok(())
    }

    /// `:engine`, `:timeout` and `:memlimit`: one session setting each;
    /// no value means `off`.
    fn cmd_set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let value = if value.is_empty() { "off" } else { value };
        self.session.set(key, value)?;
        let off = value.eq_ignore_ascii_case("off");
        match key {
            "engine" => println!("engine set to {:?}", self.session.engine()),
            "timeout_ms" if off => println!("timeout off"),
            "timeout_ms" => println!("timeout set to {value} ms (queries cancel cooperatively)"),
            _ if off => println!("memory limit off"),
            _ => println!("memory limit set to {value} bytes per query"),
        }
        Ok(())
    }

    fn cmd_explain(&mut self, sql: &str) -> Result<(), String> {
        let out = (self.session)
            .execute_with(sql, &self.opts().explain_only(true))
            .map_err(err)?;
        print!("{}", out.plan.expect("explain_only sets plan"));
        let query = nra::sql::parse_query(sql).map_err(err)?;
        let statement = nra::sql::bind_statement(&query, &self.db().catalog()).map_err(err)?;
        let trees = nra::core::build(statement, self.session.engine())
            .map_err(err)?
            .tree_expression();
        for (i, tree) in trees.iter().enumerate() {
            let label = if trees.len() > 1 {
                format!(" (a{})", i + 1)
            } else {
                String::new()
            };
            println!("\ntree expression{label}:\n{tree}");
        }
        Ok(())
    }
}

/// EXPLAIN ANALYZE: run `sql` profiled under `opts`, with the I/O
/// simulator on, and print the plan that ran with its `-- io:` footer.
fn analyze(session: &Session, sql: &str, opts: QueryOptions) -> Result<(), String> {
    iosim::enable(IoConfig::default());
    let result = session.execute_with(sql, &opts.collect_profile(true));
    iosim::disable();
    let plan = result.map_err(err)?.plan;
    print!("{}", plan.ok_or("no plan rendered for this query")?);
    Ok(())
}

/// Print the trace of `sql` and its row count. A failed query prints the
/// trace its report carries, then fails with its error.
fn trace(session: &Session, sql: &str, opts: QueryOptions) -> Result<(), String> {
    let result = session.execute_with(sql, &opts.collect_trace(true));
    let out = match &result {
        Ok(out) => Some(out),
        Err(e) => e.report(),
    };
    if let Some(trace) = out.and_then(|out| out.trace.as_ref()) {
        print!("{}", trace.render_tree());
    }
    println!("-- {} row(s)", result.map_err(err)?.rows.len());
    Ok(())
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

const HELP: &str = "\
:tpch <scale>                 generate TPC-H-shaped data (e.g. :tpch 0.05)
:tbl <table> <file>           load a dbgen .tbl file into an existing table
:create <t> (a int, b str not null, ...) [pk(a,...)]
:load <table> <file.csv>      load a CSV (header row) into a table
:export <table> <file.csv>    dump a table to CSV
:tables                       list tables with row counts
:checkpoint                   snapshot a durable database and truncate its WAL
:engine <auto|original|optimized|bottomup|pushdown|positive|baseline|oracle>
                              (or any engine name nra_sys.queries prints)
:timeout <ms|off>             cancel queries cooperatively after a deadline
:memlimit <bytes|off>         per-query memory budget for governed allocations
:explain <sql>                the plan :engine builds + each arm's tree expression
:analyze <sql>                EXPLAIN ANALYZE: the plan that ran + measured stats
:trace <sql>                  query-lifecycle trace (parse/bind/plan/execute), also of a failed query
:metrics                      process-cumulative metrics (Prometheus text)
:ps                           currently-running queries with live progress
:history [n]                  last n completed queries (the whole ring by default)
:timing on|off                print execution time per query
:quit                         exit
anything else                 executed as SQL (nra_sys.* system tables included)";
