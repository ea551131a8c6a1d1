(* End-to-end benchmark of Decibel: one workload per run, closed loop,
   every result checked against the model oracle and against
   expectations derived from the op stream (see README.md).

   bench.exe --workload <tf-flat|vf-deep|hy-cur-rw> --seed N --seconds S
             --trace <0|1>
   bench.exe --self-test *)

open Decibel
open Decibel_storage
module Obs = Decibel_obs.Obs
module Prof = Obs.Prof
module Par = Decibel_par.Par
module Strategy = Decibel_bench.Strategy
module Config = Decibel_bench.Config
module Bw = Decibel_bench.Workload
module E = Expect

(* seconds on the monotonic clock, with nanosecond resolution *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* workloads *)

type spec = {
  name : string;
  scheme : Database.scheme;
  strategy : Strategy.kind;
  branches : int;
  records : int;  (* inserts per branch *)
  commit_every : int;
  durable : bool;
  pool_pages : int option;  (* 64 KiB pages; None: the default 64 MiB pool *)
  read_write : bool;
      (* hy-cur-rw: writes on both sides of its merges, a dev branch per
         [dev_cycle] rounds, Q1/Q3/Q4 issued as VQuel text *)
  batch : int;  (* inserts + updates per write batch *)
  maint_every : int;  (* rounds between maintenance ticks; 0 = none *)
}

let specs =
  [
    {
      name = "tf-flat";
      scheme = Database.Tuple_first;
      strategy = Strategy.Flat;
      branches = 20;
      records = 300;
      commit_every = 100;
      durable = false;
      pool_pages = None;
      read_write = false;
      batch = 8;
      maint_every = 0;
    };
    {
      name = "vf-deep";
      scheme = Database.Version_first;
      strategy = Strategy.Deep;
      branches = 20;
      records = 300;
      commit_every = 100;
      durable = false;
      pool_pages = None;
      read_write = false;
      batch = 8;
      maint_every = 0;
    };
    {
      name = "hy-cur-rw";
      scheme = Database.Hybrid;
      strategy = Strategy.Curation;
      branches = 20;
      records = 400;
      commit_every = 80;
      durable = true;
      pool_pages = Some 4;
      read_write = true;
      batch = 16;
      maint_every = 8;
    };
  ]

(* On hy-cur-rw a development branch lives [dev_cycle] rounds, merging
   into master every round, then is retired and a fresh one forked, as
   in the curation strategy: a dev branch that never retired would
   diverge from master without bound and make every later round slower
   than the one before. *)
let dev_cycle = 8
let dev_of index = Printf.sprintf "work%d" (index / dev_cycle)

let config spec seed =
  {
    Config.default with
    branches = spec.branches;
    records_per_branch = spec.records;
    commit_every = spec.commit_every;
    seed;
    curation_dev_lifetime = spec.records;
    curation_feature_lifetime = spec.records / 3;
  }

(* The load's op stream, with explicit update salts, followed by the
   branches the timed rounds use. *)
let load_stream spec seed =
  let w = Strategy.generate spec.strategy (config spec seed) in
  let salt = ref 0 in
  let ops =
    List.map
      (function
        | Bw.Insert { branch; key } -> E.Insert (branch, key)
        | Bw.Update { branch; key } ->
            incr salt;
            E.Update (branch, key, !salt)
        | Bw.Commit b -> E.Commit b
        | Bw.Create_branch { name; from_branch; commits_back } ->
            E.Branch (name, from_branch, commits_back)
        | Bw.Merge { into; from; _ } -> E.Merge (into, from)
        | Bw.Retire b -> E.Retire b)
      w.Bw.ops
  in
  let extra =
    if spec.read_write then [ E.Branch (dev_of 0, "master", 0) ]
    else
      (* read-only data; the timed writes go to a retired pair of side
         branches, invisible to Q1-Q4 *)
      [
        E.Branch ("side", "master", 0);
        E.Branch ("side-dev", "side", 0);
        E.Retire "side";
        E.Retire "side-dev";
      ]
  in
  (ops @ extra, !salt)

(* ------------------------------------------------------------------ *)
(* applying ops to a database *)

type store = {
  db : Database.t;
  dir : string;
  vids : (int, int) Hashtbl.t;  (* global commit index -> version id *)
  bcommits : (string, int list) Hashtbl.t;  (* branch -> vids, newest first *)
  mutable ncommit : int;
}

let new_store db dir =
  { db; dir; vids = Hashtbl.create 64; bcommits = Hashtbl.create 32; ncommit = 0 }

let note_commit st b vid =
  Hashtbl.replace st.vids st.ncommit vid;
  st.ncommit <- st.ncommit + 1;
  let prev = Option.value ~default:[] (Hashtbl.find_opt st.bcommits b) in
  Hashtbl.replace st.bcommits b (vid :: prev)

let bid st b = Database.branch_named st.db b

let merge st ~into ~from =
  Database.merge st.db ~into:(bid st into) ~from:(bid st from)
    ~policy:Types.Three_way ~message:"merge"

let apply ~seed st op =
  match op with
  | E.Insert (b, k) -> Database.insert st.db (bid st b) (E.tuple ~seed k 0)
  | E.Update (b, k, s) -> Database.update st.db (bid st b) (E.tuple ~seed k s)
  | E.Commit b -> note_commit st b (Database.commit st.db (bid st b) ~message:"c")
  | E.Branch (name, from, back) ->
      let v = List.nth (Hashtbl.find st.bcommits from) back in
      ignore (Database.create_branch st.db ~name ~from:v);
      Hashtbl.replace st.bcommits name [ v ]
  | E.Merge (into, from) ->
      let r = merge st ~into ~from in
      note_commit st into r.Types.merge_version
  | E.Retire b -> Decibel_graph.Version_graph.retire (Database.graph st.db) (bid st b)

let start_store st =
  note_commit st "master" Decibel_graph.Version_graph.root_version;
  (* the root is not a commit of the op stream: drop it from the index *)
  Hashtbl.remove st.vids 0;
  st.ncommit <- 0

let store_dir name =
  Printf.sprintf ".bench_build/stores/%s-%d-%d" name (Unix.getpid ())
    (int_of_float (Unix.gettimeofday () *. 1e6) land 0xffffff)

let new_pool spec =
  match spec.pool_pages with
  | Some n -> Buffer_pool.create ~capacity_pages:n ()
  | None -> Buffer_pool.create ()

(* setup_s: generate the op stream and load it into a fresh store,
   ending with a flush *)
let setup spec seed =
  let t0 = now () in
  let ops, salts = load_stream spec seed in
  let dir = store_dir spec.name in
  Decibel_util.Fsutil.mkdir_p dir;
  let db =
    Database.open_ ~pool:(new_pool spec) ~durable:spec.durable ~scheme:spec.scheme
      ~dir ~schema:E.schema ()
  in
  let st = new_store db dir in
  start_store st;
  List.iter (apply ~seed st) ops;
  Database.flush db;
  (now () -. t0, st, ops, salts)

let discard st =
  Database.close st.db;
  Decibel_util.Fsutil.rm_rf st.dir

let rec disk_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left
        (fun acc f -> acc + disk_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | Unix.S_REG -> (Unix.lstat path).Unix.st_size
  | _ -> 0

(* ------------------------------------------------------------------ *)
(* the operations of a round *)

type read =
  | Q1 of string * E.pred option
  | Q2 of string * string
  | Q3 of string * string * E.pred
  | Q4 of E.pred
  | Checkout of int  (* global commit index of the load *)

type step =
  | Read of read
  | Write of string * (int * int) list  (* branch, (key, salt); salt 0 inserts *)
  | Commit of string
  | Merge of string * string  (* into, from *)
  | Maint
  | Fork of string * string  (* name, from: a branch off [from]'s head *)
  | Retire of string

let read_kind = function
  | Q1 _ -> "q1"
  | Q2 _ -> "q2"
  | Q3 _ -> "q3"
  | Q4 _ -> "q4"
  | Checkout _ -> "checkout"

let step_kind = function
  | Read r -> read_kind r
  | Write _ -> "write"
  | Commit _ -> "commit"
  | Merge _ -> "merge"
  | Maint -> "maint"
  | Fork _ -> "branch"
  | Retire _ -> "retire"

(* ~1/2 and ~15/16 of uniformly random int64 column values pass *)
let half = { E.col = 1; lt = false; bound = 0L }
let most = { E.col = 2; lt = true; bound = 8070450532247928832L }

type plan = {
  targets : int -> string * (string * string) * (string * string);
      (* round -> Q1 branch, Q2 pair, Q3 pair *)
  load_commits : int;
  mutable next_key : int;
  mutable next_salt : int;
}

(* Query targets do not depend on the seed, so that runs with other
   seeds measure the same queries: tf-flat rotates over its symmetric
   children round by round, vf-deep reads the tail of its chain. *)
let make_plan spec km salts =
  let targets =
    match spec.strategy with
    | Strategy.Flat ->
        let children =
          Array.of_list (List.filter (fun b -> b <> "master" && b <> "side" && b <> "side-dev") (E.branches km))
        in
        let n = Array.length children in
        fun r ->
          let c = children.(r mod n) in
          (c, (c, "master"), (c, children.((r + 1) mod n)))
    | Strategy.Deep ->
        let chain = Array.of_list (List.filter (fun b -> b <> "side" && b <> "side-dev") (E.branches km)) in
        let n = Array.length chain in
        let tail = chain.(n - 1) in
        fun _ -> (tail, (tail, chain.(n - 2)), (tail, chain.(n / 2)))
    | Strategy.Curation | Strategy.Science ->
        fun r -> ("master", (dev_of r, "master"), ("master", dev_of r))
  in
  let max_key =
    List.fold_left
      (fun m b -> match E.Imap.max_binding_opt (E.head km b) with Some (k, _) -> max m k | None -> m)
      0 (E.branches km)
  in
  { targets; load_commits = E.ncommits km; next_key = max_key + 1; next_salt = salts + 1 }

(* one batch: ~20% inserts of fresh keys, the rest updates of keys the
   branch holds *)
let batch spec plan rng km b =
  (* a dev branch forked at the start of this round is still master *)
  let c = match Hashtbl.find_opt km.E.heads b with Some c -> c | None -> E.head km "master" in
  let lo = match E.Imap.min_binding_opt c with Some (k, _) -> k | None -> 0 in
  List.init spec.batch (fun _ ->
      if E.Imap.is_empty c || Decibel_util.Prng.chance rng 0.2 then begin
        plan.next_key <- plan.next_key + 1;
        (plan.next_key - 1, 0)
      end
      else begin
        let r = lo + Decibel_util.Prng.int rng (plan.next_key - lo) in
        let k =
          match E.Imap.find_first_opt (fun k -> k >= r) c with
          | Some (k, _) -> k
          | None -> fst (E.Imap.max_binding c)
        in
        plan.next_salt <- plan.next_salt + 1;
        (k, plan.next_salt - 1)
      end)

(* One round: every op type once or more, interleaved, so that host
   drift over the run hits every metric alike.  Checkouts walk the
   load's commits in a golden-ratio sequence, which spreads any prefix
   of the walk evenly over them, so that every run samples the same
   mix of small and large commits however many rounds it completes. *)
let round spec plan rng km ~index =
  let into, from = if spec.read_write then ("master", dev_of index) else ("side", "side-dev") in
  let t1, t2, t3 = plan.targets index in
  let checkout j =
    let x = float ((index * 4) + j) *. 0.6180339887498949 in
    Read (Checkout (int_of_float ((x -. Float.of_int (truncate x)) *. float plan.load_commits)))
  in
  let write b = Write (b, batch spec plan rng km b) in
  (* hy-cur-rw also writes to the merge target, so both sides of its
     merges change; the read-only workloads only write to the retired
     side branches *)
  let second = if spec.read_write then into else from in
  let maint =
    if spec.maint_every > 0 && (index + 1) mod spec.maint_every = 0 then [ Maint ] else []
  in
  let fork =
    if spec.read_write && index > 0 && index mod dev_cycle = 0 then
      [ Fork (from, into); Retire (dev_of (index - 1)) ]
    else []
  in
  fork
  @ [
    Read (Q1 (t1, if spec.read_write then Some half else None));
    write from;
    Commit from;
    Read (Q2 (fst t2, snd t2));
    write second;
    Commit second;
    Merge (into, from);
    Read (Q3 (fst t3, snd t3, most));
    write from;
    Commit from;
    Merge (into, from);
    Read (Q4 most);
  ]
  @ List.init 4 checkout @ maint

(* ------------------------------------------------------------------ *)
(* running reads, with their output kept for checking *)

type output =
  | Rows of Tuple.t list
  | Pairs of (Tuple.t * Tuple.t) list
  | Annotated of (Tuple.t * string list) list

let closure p = E.holds p

let vquel_text = function
  | Q1 (b, Some p) ->
      Printf.sprintf "SELECT * FROM r WHERE r.Version = '%s' AND %s" b (E.pred_text "r." p)
  | Q1 (b, None) -> Printf.sprintf "SELECT * FROM r WHERE r.Version = '%s'" b
  | Q3 (b1, b2, p) ->
      Printf.sprintf
        "SELECT * FROM r AS a, r AS b WHERE a.Version = '%s' AND %s AND a.id = b.id AND \
         b.Version = '%s'"
        b1 (E.pred_text "a." p) b2
  | Q4 p -> Printf.sprintf "SELECT * FROM r WHERE HEAD(r.Version) = true AND %s" (E.pred_text "r." p)
  | Q2 _ | Checkout _ -> invalid_arg "vquel_text"

let via_vquel spec r = spec.read_write && match r with Q1 _ | Q3 _ | Q4 _ -> true | _ -> false

let of_vquel r (rows : Vquel.row list) =
  match r with
  | Q3 _ -> Pairs (List.map (fun (x : Vquel.row) -> (Array.sub x.values 0 16, Array.sub x.values 16 16)) rows)
  | Q4 _ -> Annotated (List.map (fun (x : Vquel.row) -> (x.values, x.row_branches)) rows)
  | _ -> Rows (List.map (fun (x : Vquel.row) -> x.values) rows)

(* [run] returns a thunk so callers can time exactly the call *)
let run_read spec st ~plan_only r =
  let db = st.db in
  if via_vquel spec r then begin
    let text = vquel_text r in
    match plan_only with
    | Some plan_us ->
        let t0 = now () in
        let p = Vquel.plan_of_select (Vquel.parse text) in
        plan_us := (now () -. t0) *. 1e6;
        fun () -> of_vquel r (Vquel.run db p)
    | None -> fun () -> of_vquel r (Vquel.query db text)
  end
  else
    let acc = ref [] in
    let keep t = acc := t :: !acc in
    match r with
    | Q1 (b, pred) ->
        let b = bid st b and pred = Option.map closure pred in
        fun () ->
          ignore (Query.q1_scan ?pred ~f:keep db b);
          Rows !acc
    | Q2 (b1, b2) ->
        let b1 = bid st b1 and b2 = bid st b2 in
        fun () ->
          ignore (Query.q2_pos_diff ~f:keep db b1 b2);
          Rows !acc
    | Q3 (b1, b2, p) ->
        let b1 = bid st b1 and b2 = bid st b2 in
        let pairs = ref [] in
        fun () ->
          ignore (Query.q3_join ~pred:(closure p) ~f:(fun a b -> pairs := (a, b) :: !pairs) db b1 b2);
          Pairs !pairs
    | Q4 p ->
        fun () ->
          ignore (Query.q4_heads ~pred:(closure p) ~f:keep db);
          Rows !acc
    | Checkout i ->
        let v = Hashtbl.find st.vids i in
        fun () ->
          ignore (Query.q1_scan_version ~f:keep db v);
          Rows !acc

let rows_of = function
  | Rows l -> List.length l
  | Pairs l -> List.length l
  | Annotated l -> List.length l

let digest = function
  | Rows l -> E.of_tuples l
  | Pairs l -> E.of_pairs l
  | Annotated l -> E.of_annotated l

let branch_digest st b =
  let acc = ref E.empty in
  Database.scan st.db (bid st b) (fun t -> acc := E.add !acc (E.row_hash t));
  !acc

(* branches whose scan differs from the op-stream state *)
let state_mismatches km st what =
  List.filter_map
    (fun b ->
      let got = branch_digest st b and want = E.q1 km b in
      if got = want then None
      else Some (Printf.sprintf "%s %s: %s, op stream %s" what b (E.pp_digest got) (E.pp_digest want)))
    (E.branches km)

(* ------------------------------------------------------------------ *)
(* measurement state *)

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest rank *)
let percentile p l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

type layer = {
  mutable n : int;
  mutable rows : int;
  mutable query_ms : float list;
  mutable engine_ms : float list;
  mutable scanned : int;
  mutable bitmap_words : int;
  mutable minor_words : float;
  counters : (string, int) Hashtbl.t;
}

let new_layer () =
  {
    n = 0;
    rows = 0;
    query_ms = [];
    engine_ms = [];
    scanned = 0;
    bitmap_words = 0;
    minor_words = 0.;
    counters = Hashtbl.create 16;
  }

type meas = {
  times : (string, float list) Hashtbl.t;  (* kind -> ms *)
  mutable write_rates : float list;  (* ops/s per batch *)
  mutable written_rows : int;
  mutable load_user_bytes : int;  (* encoded bytes of the tuples the load wrote *)
  mutable user_bytes : int;  (* the same for the timed phase *)
  mutable attempted : int;
  mutable failed : int;
  mutable rounds : int;
  mutable maint_reclaimed : int;
  mutable plan_us : float list;
  layers : (string, layer) Hashtbl.t;
  seen_counters : (string, unit) Hashtbl.t;
}

let new_meas () =
  {
    times = Hashtbl.create 16;
    write_rates = [];
    written_rows = 0;
    load_user_bytes = 0;
    user_bytes = 0;
    attempted = 0;
    failed = 0;
    rounds = 0;
    maint_reclaimed = 0;
    plan_us = [];
    layers = Hashtbl.create 16;
    seen_counters = Hashtbl.create 64;
  }

let times m kind = Option.value ~default:[] (Hashtbl.find_opt m.times kind)
let sample m kind ms = Hashtbl.replace m.times kind (ms :: times m kind)

let layer m kind =
  match Hashtbl.find_opt m.layers kind with
  | Some l -> l
  | None ->
      let l = new_layer () in
      Hashtbl.replace m.layers kind l;
      l

let engine_prefixes = [ "tuple_first."; "version_first."; "hybrid." ]
let starts p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p
let is_engine n = List.exists (fun p -> starts p n) engine_prefixes
let is_query n = starts "query." n || starts "vquel." n

(* exclusive time of every profile node of a layer, summed *)
let rec self_ms pred (n : Prof.node) =
  let here =
    if pred n.Prof.n_name then
      (n.Prof.n_dur -. List.fold_left (fun a (c : Prof.node) -> a +. c.Prof.n_dur) 0. n.Prof.n_children)
      *. 1e3
    else 0.
  in
  List.fold_left (fun a c -> a +. self_ms pred c) here n.Prof.n_children

(* Run [f] (one timed call) under the profiler, attributing counter
   deltas, profile spans and minor allocation to [kind]. *)
let traced m st kind ~rows f =
  let before = Database.metrics st.db in
  let w0 = Gc.minor_words () in
  let r, p = Database.profile ~label:kind st.db f in
  let w1 = Gc.minor_words () in
  sample m kind (p.Prof.p_dur *. 1e3);
  let after = Database.metrics st.db in
  let l = layer m kind in
  l.n <- l.n + 1;
  l.rows <- l.rows + rows r;
  l.minor_words <- l.minor_words +. (w1 -. w0);
  l.query_ms <- self_ms is_query p.Prof.p_root :: l.query_ms;
  l.engine_ms <- self_ms is_engine p.Prof.p_root :: l.engine_ms;
  l.scanned <- l.scanned + Prof.total p Prof.Tuples_scanned;
  l.bitmap_words <- l.bitmap_words + Prof.total p Prof.Bitmap_words;
  List.iter
    (fun (name, d) ->
      Hashtbl.replace m.seen_counters name ();
      Hashtbl.replace l.counters name (d + Option.value ~default:0 (Hashtbl.find_opt l.counters name)))
    (Obs.counters_diff before after);
  r

(* ------------------------------------------------------------------ *)
(* the timed phase *)

(* What a timed step did, as checked after the phase against the model
   oracle and the op-stream expectations replayed to the same point.
   Checking afterwards keeps the oracle's work and garbage out of the
   timed phase. *)
type event =
  | Read_out of read * E.digest
  | Wrote of string * (int * int) list
  | Committed of string
  | Merged of string * string * (int * int * int * int)
  | Maintained
  | Forked of string * string
  | Retired of string
  | Raised of string * string

type ctx = {
  spec : spec;
  seed : int64;
  trace : bool;
  st : store;
  km : E.t;  (* op-stream state, for choosing keys to update *)
  m : meas;
  fault : output -> output;
  mutable events : event list;  (* newest first *)
}

(* the op-stream ops a step performed *)
let ops_of_event = function
  | Wrote (b, kvs) -> List.map (fun (k, s) -> if s = 0 then E.Insert (b, k) else E.Update (b, k, s)) kvs
  | Committed b -> [ E.Commit b ]
  | Merged (into, from, _) -> [ E.Merge (into, from) ]
  | Forked (name, from) -> [ E.Branch (name, from, 0) ]
  | Retired b -> [ E.Retire b ]
  | Read_out _ | Maintained | Raised _ -> []

let timed c kind ~rows f =
  if c.trace then traced c.m c.st kind ~rows f
  else begin
    let t0 = now () in
    let r = f () in
    sample c.m kind ((now () -. t0) *. 1e3);
    r
  end

let merge_stats (r : Types.merge_result) =
  (List.length r.Types.conflicts, r.Types.keys_ours, r.Types.keys_theirs, r.Types.keys_both)

let exec_step c step =
  let kind = step_kind step in
  c.m.attempted <- c.m.attempted + 1;
  let ev =
    try
    match step with
    | Read r ->
        let plan_us = ref 0. in
        let plan_only = if c.trace && via_vquel c.spec r then Some plan_us else None in
        let f = run_read c.spec c.st ~plan_only r in
        let out = c.fault (timed c kind ~rows:rows_of f) in
        if plan_only <> None then c.m.plan_us <- !plan_us :: c.m.plan_us;
        Read_out (r, digest out)
    | Write (b, kvs) ->
        let tuples = List.map (fun (k, s) -> (s, E.tuple ~seed:c.seed k s)) kvs in
        let id = bid c.st b and db = c.st.db in
        let t0 = now () in
        timed c kind
          ~rows:(fun () -> List.length tuples)
          (fun () ->
            List.iter (fun (s, t) -> if s = 0 then Database.insert db id t else Database.update db id t) tuples);
        c.m.write_rates <- (float (List.length tuples) /. (now () -. t0)) :: c.m.write_rates;
        c.m.written_rows <- c.m.written_rows + List.length tuples;
        List.iter (fun (_, t) -> c.m.user_bytes <- c.m.user_bytes + E.user_bytes t) tuples;
        Wrote (b, kvs)
    | Commit b ->
        let id = bid c.st b in
        note_commit c.st b (timed c kind ~rows:(fun _ -> 1) (fun () -> Database.commit c.st.db id ~message:"c"));
        Committed b
    | Merge (into, from) ->
        let r = timed c kind ~rows:(fun _ -> 1) (fun () -> merge c.st ~into ~from) in
        note_commit c.st into r.Types.merge_version;
        Merged (into, from, merge_stats r)
    | Maint ->
        let rs = timed c kind ~rows:List.length (fun () -> Database.maintenance_tick c.st.db) in
        List.iter (fun (r : Database.maint_result) -> c.m.maint_reclaimed <- c.m.maint_reclaimed + r.m_reclaimed) rs;
        Maintained
    | Fork (name, from) ->
        apply ~seed:c.seed c.st (E.Branch (name, from, 0));
        Forked (name, from)
    | Retire b ->
        apply ~seed:c.seed c.st (E.Retire b);
        Retired b
    with e -> Raised (kind, Printexc.to_string e)
  in
  List.iter (E.apply c.km) (ops_of_event ev);
  c.events <- ev :: c.events

let run_rounds c plan rng ~seconds =
  let t_end = now () +. seconds in
  while now () < t_end do
    List.iter (exec_step c) (round c.spec plan rng c.km ~index:c.m.rounds);
    c.m.rounds <- c.m.rounds + 1
  done

(* ------------------------------------------------------------------ *)
(* checking, after the timed phase *)

let involved km = function
  | Q1 (b, _) -> [ E.head km b ]
  | Q2 (a, b) | Q3 (a, b, _) -> [ E.head km a; E.head km b ]
  | Q4 _ -> List.map (E.head km) (E.active km)
  | Checkout _ -> []

let expected spec km r =
  match r with
  | Q1 (b, pred) -> E.q1 km ?pred b
  | Q2 (a, b) -> E.q2 km a b
  | Q3 (a, b, p) -> E.q3 km ~pred:p a b
  | Q4 p -> E.q4 km ~pred:p ~annotated:(via_vquel spec r) ()
  | Checkout i -> E.checkout km i

(* Replay the load and the recorded steps into the model oracle and the
   op-stream model, comparing every read and merge at its op point.
   Returns the number of failed steps and their descriptions. *)
let replay spec ~seed ops events =
  let km = E.create seed in
  List.iter (E.apply km) ops;
  let model =
    new_store (Database.open_ ~scheme:Database.Model ~dir:"model" ~schema:E.schema ()) "model"
  in
  start_store model;
  List.iter (apply ~seed model) ops;
  (* reference digests of a read, recomputed only when a branch it
     reads has changed *)
  let cache = Hashtbl.create 16 in
  let references r =
    let contents = involved km r in
    match Hashtbl.find_opt cache r with
    | Some (c, refs) when List.length c = List.length contents && List.for_all2 ( == ) c contents
      ->
        refs
    | _ ->
        let refs = (digest (run_read spec model ~plan_only:None r ()), expected spec km r) in
        Hashtbl.replace cache r (contents, refs);
        refs
  in
  let check = function
    | Read_out (r, got) ->
        let m, x = references r in
        let name = read_kind r in
        if got <> m then Some (Printf.sprintf "%s: %s, model %s" name (E.pp_digest got) (E.pp_digest m))
        else if got <> x then
          Some (Printf.sprintf "%s: %s, op stream %s" name (E.pp_digest got) (E.pp_digest x))
        else None
    | Merged (into, from, stats) as ev ->
        let r = merge model ~into ~from in
        note_commit model into r.Types.merge_version;
        List.iter (E.apply km) (ops_of_event ev);
        if stats = merge_stats r then None else Some "merge: conflicts or key counts differ from the model"
    | Raised (kind, e) -> Some (Printf.sprintf "%s raised %s" kind e)
    | (Wrote _ | Committed _ | Forked _ | Retired _ | Maintained) as ev ->
        List.iter
          (fun op ->
            apply ~seed model op;
            E.apply km op)
          (ops_of_event ev);
        None
  in
  List.fold_left
    (fun (n, notes) ev -> match check ev with None -> (n, notes) | Some w -> (n + 1, w :: notes))
    (0, []) events
  |> fun (n, notes) -> (n, List.rev notes)

(* ------------------------------------------------------------------ *)
(* traced-only extras: tracing overhead and parallel speed-up *)

let interleaved ~pairs a b =
  let xa = ref [] and xb = ref [] in
  for i = 1 to pairs do
    let first, second = if i mod 2 = 0 then (a, b) else (b, a) in
    let t1 = first () in
    let t2 = second () in
    if i mod 2 = 0 then begin
      xa := t1 :: !xa;
      xb := t2 :: !xb
    end
    else begin
      xb := t1 :: !xb;
      xa := t2 :: !xa
    end
  done;
  (median !xa, median !xb)

let time_ms f =
  let t0 = now () in
  ignore (f ());
  (now () -. t0) *. 1e3

let extras c plan =
  let t1, t2, t3 = plan.targets 0 in
  let reads =
    [ Q1 (t1, if c.spec.read_write then Some half else None);
      Q2 (fst t2, snd t2);
      Q3 (fst t3, snd t3, most);
      Q4 most;
      Checkout 0 ]
  in
  let read r () = run_read c.spec c.st ~plan_only:None r () in
  let overhead =
    List.map
      (fun r ->
        let on, off =
          interleaved ~pairs:4
            (fun () -> time_ms (read r))
            (fun () ->
              Obs.set_enabled false;
              Fun.protect ~finally:(fun () -> Obs.set_enabled true) (fun () -> time_ms (read r)))
        in
        (read_kind r ^ ".obs.overhead_ms", on -. off))
      reads
  in
  let domains = Par.domain_count () in
  let par =
    List.map
      (fun r ->
        let ratio =
          if domains = 0 then 1.
          else
            let block d () =
              Par.set_domain_count d;
              median (List.init 2 (fun _ -> time_ms (read r)))
            in
            let parallel, serial = interleaved ~pairs:3 (block domains) (block 0) in
            Par.set_domain_count domains;
            serial /. parallel
        in
        (read_kind r ^ ".par.serial_over_parallel", ratio))
      [ List.nth reads 0; List.nth reads 3 ]
  in
  overhead @ par

(* ------------------------------------------------------------------ *)
(* host facts *)

(* Fixed reference loops sharing no code with the program, timed at
   the start and end of a run so that host drift can be told from a
   regression: one integer-bound, one bound by memory latency (a
   pointer chase over 32 MiB). *)
let reference_loop_ms () =
  let t0 = now () in
  let x = ref 88172645463325252 in
  for _ = 1 to 20_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  let dt = (now () -. t0) *. 1e3 in
  if !x = 0 then print_string "";
  dt

let reference_mem_ms () =
  let n = 1 lsl 22 in
  let a = Array.init n (fun i -> i) in
  (* Sattolo's shuffle: one cycle through every slot *)
  let g = Decibel_util.Prng.create 0x9e3779b9L in
  for i = n - 1 downto 1 do
    let j = Decibel_util.Prng.int g i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  let t0 = now () in
  let i = ref 0 in
  for _ = 1 to 2_000_000 do
    i := Array.unsafe_get a !i
  done;
  let dt = (now () -. t0) *. 1e3 in
  if !i < 0 then print_string "";
  dt

(* ------------------------------------------------------------------ *)
(* metrics *)

type metric = { mname : string; unit_ : string; value : float }

let e2e_metrics m ~setup ~bytes_ratio ~live_mb =
  let p50 k = median (times m k) in
  let base =
    [
      { mname = "setup_s"; unit_ = "s"; value = setup };
      { mname = "q1.p50_ms"; unit_ = "ms"; value = p50 "q1" };
      { mname = "q2.p50_ms"; unit_ = "ms"; value = p50 "q2" };
      { mname = "q3.p50_ms"; unit_ = "ms"; value = p50 "q3" };
      { mname = "q4.p50_ms"; unit_ = "ms"; value = p50 "q4" };
      { mname = "checkout.p50_ms"; unit_ = "ms"; value = p50 "checkout" };
      { mname = "checkout.p90_ms"; unit_ = "ms"; value = percentile 0.9 (times m "checkout") };
      { mname = "bytes_per_user_byte"; unit_ = "ratio"; value = bytes_ratio };
      { mname = "mem.live_mb"; unit_ = "MiB"; value = live_mb };
      { mname = "write.ops_per_s"; unit_ = "op/s"; value = median m.write_rates };
      { mname = "commit.p50_ms"; unit_ = "ms"; value = p50 "commit" };
      { mname = "commit.p90_ms"; unit_ = "ms"; value = percentile 0.9 (times m "commit") };
      { mname = "merge.p50_ms"; unit_ = "ms"; value = p50 "merge" };
    ]
  in
  base

(* the program counters the per-layer metrics read *)
let layer_counters =
  [
    "engine.scan.segments"; "commit_history.deltas_replayed"; "colseg.rows_decoded";
    "colseg.blocks_decoded"; "colseg.blocks_skipped"; "colseg.blocks_sealed";
    "buffer_pool.misses"; "buffer_pool.evictions"; "heap.pages_read"; "heap.bytes_written";
    "wal.bytes"; "merge.keys_joined"; "merge.conflicts_detected";
  ]

let layer_metrics m extras =
  let get k = Hashtbl.find_opt m.layers k in
  let per_op k f = match get k with Some l when l.n > 0 -> f l | _ -> 0. in
  let counter (l : layer) name = float (Option.value ~default:0 (Hashtbl.find_opt l.counters name)) in
  let total name =
    Hashtbl.fold (fun _ (l : layer) a -> a +. counter l name) m.layers 0.
  in
  let mean l name = counter l name /. float l.n in
  let per_row l x = x /. float (max 1 l.rows) in
  let reads = [ "q1"; "q2"; "q3"; "q4"; "checkout" ] in
  let each ops suffix unit_ f =
    List.map (fun k -> { mname = k ^ suffix; unit_; value = per_op k f }) ops
  in
  let extra name unit_ = { mname = name; unit_; value = Option.value ~default:0. (List.assoc_opt name extras) } in
  let writes = match get "write" with Some l -> l.n | None -> 0 in
  List.concat
    [
      each reads ".query.self_ms" "ms" (fun l -> median l.query_ms);
      [ { mname = "vquel.plan_us"; unit_ = "us"; value = median m.plan_us } ];
      each (reads @ [ "commit"; "merge" ]) ".engine.self_ms" "ms" (fun l -> median l.engine_ms);
      each reads ".engine.rows_scanned_per_row" "ratio" (fun l -> per_row l (float l.scanned));
      each reads ".engine.segments" "count" (fun l -> mean l "engine.scan.segments");
      each reads ".bitmap.words" "count" (fun l -> float l.bitmap_words /. float l.n);
      each [ "checkout" ] ".commit_history.deltas_replayed" "count" (fun l ->
          mean l "commit_history.deltas_replayed");
      each reads ".colseg.rows_decoded_per_row" "ratio" (fun l -> per_row l (counter l "colseg.rows_decoded"));
      each reads ".colseg.blocks_decoded" "count" (fun l -> mean l "colseg.blocks_decoded");
      each reads ".colseg.blocks_skipped" "count" (fun l -> mean l "colseg.blocks_skipped");
      [
        { mname = "write.colseg.blocks_sealed"; unit_ = "count";
          value = total "colseg.blocks_sealed" /. float (max 1 writes) };
      ];
      each reads ".buffer_pool.misses" "count" (fun l -> mean l "buffer_pool.misses");
      [ { mname = "buffer_pool.evictions"; unit_ = "count";
          value = total "buffer_pool.evictions" /. float (max 1 m.rounds) } ];
      each reads ".heap.pages_read" "count" (fun l -> mean l "heap.pages_read");
      [
        { mname = "write.heap.bytes_per_user_byte"; unit_ = "ratio";
          value = total "heap.bytes_written" /. float (max 1 m.user_bytes) };
        { mname = "write.wal.bytes_per_op"; unit_ = "B";
          value = total "wal.bytes" /. float (max 1 m.written_rows) };
      ];
      each [ "merge" ] ".merge_driver.keys_joined" "count" (fun l -> mean l "merge.keys_joined");
      each [ "merge" ] ".merge_driver.conflicts" "count" (fun l -> mean l "merge.conflicts_detected");
      [ extra "q1.par.serial_over_parallel" "ratio"; extra "q4.par.serial_over_parallel" "ratio" ];
      [
        { mname = "maint.tick_ms"; unit_ = "ms"; value = median (times m "maint") };
        { mname = "maint.bytes_reclaimed"; unit_ = "B"; value = float m.maint_reclaimed };
      ];
      each (reads @ [ "write" ]) ".gc.minor_words_per_row" "words" (fun l -> per_row l l.minor_words);
      List.map (fun k -> extra (k ^ ".obs.overhead_ms") "ms") reads;
    ]

(* ------------------------------------------------------------------ *)
(* one run *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (* mismatches, for stderr *)
  host : (string * string) list;
}

let user_bytes_of ~seed ops =
  List.fold_left
    (fun a -> function
      | E.Insert (_, k) -> a + E.user_bytes (E.tuple ~seed k 0)
      | E.Update (_, k, s) -> a + E.user_bytes (E.tuple ~seed k s)
      | _ -> a)
    0 ops

(* Check the loaded store, run the timed rounds, check the final state,
   then replay everything into the oracles.  Returns what the rest of
   the run needs, so that the benchmark's own inputs are garbage once
   it returns. *)
let timed_phase ~fault spec ~seed ~seconds ~trace st m (ops, salts) =
  let km = E.create seed in
  List.iter (E.apply km) ops;
  m.load_user_bytes <- user_bytes_of ~seed ops;
  let load_notes = state_mismatches km st "load" in
  Hashtbl.reset km.E.infos;
  (* the load's garbage is compacted before timing, so the timed ticks
     see the steady state the rounds produce *)
  if spec.maint_every > 0 then ignore (Database.maintenance_tick st.db);
  let rng = Decibel_util.Prng.create (Int64.add seed 0x5eedL) in
  let plan = make_plan spec km salts in
  let c = { spec; seed; trace; st; km; m; fault; events = [] } in
  Gc.full_major ();
  run_rounds c plan rng ~seconds;
  let extras = if trace then extras c plan else [] in
  let final_notes = state_mismatches km st "end" in
  let final = List.map (fun b -> (b, E.q1 km b)) (E.branches km) in
  let failed, notes = replay spec ~seed ops (List.rev c.events) in
  m.failed <- failed;
  (load_notes @ final_notes, notes, extras, final)

let run_workload ?(fault = fun o -> o) spec ~seed ~seconds ~trace =
  Obs.set_enabled trace;
  (* keep the pool within the host's cores: the caller is one of them *)
  let ncores = Domain.recommended_domain_count () in
  if Par.domain_count () > ncores - 1 then Par.set_domain_count (ncores - 1);
  let seed = Int64.of_int seed in
  let ref_start = (reference_loop_ms (), reference_mem_ms ()) in
  (* set-up several times (one store per set-up); the last one is kept *)
  let setups = if trace then 1 else 5 in
  let rec loads i acc =
    let secs, st, ops, salts = setup spec seed in
    if i + 1 = setups then (List.rev (secs :: acc), st, (ops, salts))
    else begin
      discard st;
      loads (i + 1) (secs :: acc)
    end
  in
  let setup_times, st, inputs = loads 0 [] in
  let m = new_meas () in
  let open_db = ref (Some st) in
  Fun.protect
    ~finally:(fun () -> Option.iter (fun st -> try discard st with _ -> ()) !open_db)
    (fun () ->
      let state_notes, notes, extras, final =
        timed_phase ~fault spec ~seed ~seconds ~trace st m inputs
      in
      Gc.full_major ();
      Gc.full_major ();
      let live_mb = float ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576. in
      let crash_notes =
        if not spec.durable then []
        else begin
          (* every acknowledged write must read back after a crash *)
          Database.crash st.db;
          open_db := None;
          let st = { st with db = Database.reopen ~pool:(new_pool spec) ~durable:true ~dir:st.dir () } in
          open_db := Some st;
          List.filter_map
            (fun (b, want) ->
              let got = branch_digest st b in
              if got = want then None
              else Some (Printf.sprintf "after crash %s: %s, want %s" b (E.pp_digest got) (E.pp_digest want)))
            final
        end
      in
      let st = Option.get !open_db in
      Database.flush st.db;
      let bytes = disk_bytes st.dir in
      open_db := None;
      discard st;
      let ref_end = (reference_loop_ms (), reference_mem_ms ()) in
      let metrics =
        if trace then layer_metrics m extras
        else
          e2e_metrics m ~setup:(median setup_times)
            ~bytes_ratio:(float bytes /. float (m.load_user_bytes + m.user_bytes))
            ~live_mb
      in
      {
        correct = state_notes = [] && crash_notes = [];
        attempted = m.attempted;
        failed = m.failed;
        metrics;
        notes = state_notes @ notes @ crash_notes;
        host =
          [
            ("nproc", string_of_int ncores);
            ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
            ("par_domains", string_of_int (Par.domain_count ()));
            ("ref_loop_ms_start", Printf.sprintf "%.3f" (fst ref_start));
            ("ref_loop_ms_end", Printf.sprintf "%.3f" (fst ref_end));
            ("ref_mem_ms_start", Printf.sprintf "%.3f" (snd ref_start));
            ("ref_mem_ms_end", Printf.sprintf "%.3f" (snd ref_end));
            ("rounds", string_of_int m.rounds);
            ("store_bytes", string_of_int bytes);
            ( "pool_bytes",
              let pool = new_pool spec in
              string_of_int (Buffer_pool.capacity_pages pool * Buffer_pool.page_size pool) );
            ("setup_s", Printf.sprintf "[%s]" (String.concat ", " (List.map (Printf.sprintf "%.3f") setup_times)));
          ]
          @
          (* a counter the per-layer metrics read that the program never
             registered reads 0 and is named here *)
          if not trace then []
          else
            [
              ( "absent_counters",
                Printf.sprintf "[%s]"
                  (String.concat ", "
                     (List.filter_map
                        (fun c -> if Hashtbl.mem m.seen_counters c then None else Some (Printf.sprintf "%S" c))
                        layer_counters)) );
            ];
      })

(* ------------------------------------------------------------------ *)
(* output *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result r =
  List.iter (fun n -> prerr_endline ("mismatch: " ^ n)) r.notes;
  Printf.printf "host: {%s}\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) r.host));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun mt ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.mname (json_number mt.value)
              mt.unit_)
          r.metrics))

(* ------------------------------------------------------------------ *)
(* self-test: a clean run passes, a planted fault is caught *)

let drop_row = function
  | Rows (_ :: rest) -> Rows rest
  | Pairs (_ :: rest) -> Pairs rest
  | Annotated (_ :: rest) -> Annotated rest
  | o -> o

let self_test () =
  let ok = ref true in
  List.iter
    (fun spec ->
      let spec = { spec with records = 60; commit_every = 20; branches = 6 } in
      let clean = run_workload spec ~seed:7 ~seconds:0.3 ~trace:false in
      let planted = run_workload ~fault:drop_row spec ~seed:7 ~seconds:0.3 ~trace:false in
      let traced = run_workload spec ~seed:7 ~seconds:0.3 ~trace:true in
      let pass =
        clean.correct && clean.failed = 0 && traced.failed = 0 && planted.failed > 0
      in
      Printf.printf "%s: clean %d/%d failed, traced %d/%d, dropped row %d/%d -> %s\n" spec.name
        clean.failed clean.attempted traced.failed traced.attempted planted.failed
        planted.attempted
        (if pass then "ok" else "FAIL");
      List.iter (fun n -> Printf.printf "  %s\n" n) clean.notes;
      if not pass then ok := false)
    specs;
  exit (if !ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME tf-flat | vf-deep | hy-cur-rw");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--self-test", Arg.Set self, " check that the oracle catches a planted fault");
    ]
    (fun a -> raise (Arg.Bad a))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self then self_test ();
  match List.find_opt (fun s -> s.name = !workload) specs with
  | None ->
      prerr_endline "unknown --workload";
      exit 2
  | Some spec ->
      if !seed < 0 || !seconds < 1 then begin
        prerr_endline "--seed and --seconds are required";
        exit 2
      end;
      print_result
        (run_workload spec ~seed:!seed ~seconds:(float !seconds) ~trace:(!trace = 1))
