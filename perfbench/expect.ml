(* Expected results derived from the op stream alone, and the
   order-insensitive result digests both the engines' and the model
   oracle's outputs are reduced to.

   Record content is a pure function of (key, salt): salt 0 is the
   inserted record, salt s > 0 the record written by the update that
   drew salt s.  A branch state is therefore a persistent map
   key -> salt, commits are snapshots of it, and a three-way merge is
   decided per key against the merge base: the source's copy is taken
   when only the source changed the key since the base, the
   destination's copy otherwise (updates rewrite every non-key field,
   so a key changed on both sides conflicts on every field and the
   destination wins all of them). *)

open Decibel_storage
module Imap = Map.Make (Int)

type content = int Imap.t

type op =
  | Insert of string * int
  | Update of string * int * int  (* branch, key, salt *)
  | Commit of string
  | Branch of string * string * int  (* name, from, commits back *)
  | Merge of string * string  (* into, from *)
  | Retire of string

(* ------------------------------------------------------------------ *)
(* record content *)

let schema =
  Schema.make ~name:"r"
    ~columns:
      (List.init 16 (fun i ->
           {
             Schema.col_name = (if i = 0 then "id" else Printf.sprintf "c%d" i);
             col_type = Schema.T_int;
           }))
    ~pk:"id"

let tuple ~seed key salt =
  let g =
    Decibel_util.Prng.create
      (Int64.add seed (Int64.of_int ((key * 65537) + (salt * 2) + 1)))
  in
  Array.init 16 (fun j ->
      if j = 0 then Value.int key else Value.Int (Decibel_util.Prng.next_int64 g))

let user_bytes t = Tuple.encoded_size schema t

(* ------------------------------------------------------------------ *)
(* digests: (row count, wrapping sum of mixed per-row hashes) *)

type digest = { rows : int; sum : int }

let empty = { rows = 0; sum = 0 }

(* splitmix finalizer, so that sums of hashes behave as a multiset hash *)
let mix h =
  let h = (h lxor (h lsr 31)) * 0x3f4a7c15 in
  let h = (h lxor (h lsr 29)) * 0x1ce4e5b9 in
  h lxor (h lsr 32)

let row_hash (t : Tuple.t) =
  Array.fold_left
    (fun h v ->
      mix (h + match v with Value.Int x -> Int64.to_int x | Value.Str s -> Hashtbl.hash s))
    0x2545f491 t

let pair_hash h1 h2 = mix ((h1 * 31) + h2)
let add d h = { rows = d.rows + 1; sum = d.sum + h }

let of_tuples ts = List.fold_left (fun d t -> add d (row_hash t)) empty ts

let of_pairs ps =
  List.fold_left (fun d (a, b) -> add d (pair_hash (row_hash a) (row_hash b))) empty ps

let pp_digest d = Printf.sprintf "%d rows/%x" d.rows (d.sum land 0xffffff)

(* ------------------------------------------------------------------ *)
(* predicates, as data so both VQuel text and closures derive from one *)

type pred = { col : int; lt : bool; bound : int64 }

let holds p (t : Tuple.t) =
  match t.(p.col) with
  | Value.Int x -> if p.lt then Int64.compare x p.bound < 0 else Int64.compare x p.bound > 0
  | Value.Str _ -> false

let pred_text alias p =
  Printf.sprintf "%sc%d %s %Ld" alias p.col (if p.lt then "<" else ">") p.bound

(* ------------------------------------------------------------------ *)
(* the key model *)

type info = { h : int; tup : Tuple.t }

type t = {
  seed : int64;
  heads : (string, content) Hashtbl.t;
  fork : (string, content) Hashtbl.t;
  last_merge : (string * string, content) Hashtbl.t;
  branch_commits : (string, int list) Hashtbl.t;  (* newest first *)
  commits : content Decibel_util.Vec.t;  (* by global commit index *)
  mutable retired : string list;
  mutable order : string list;  (* creation order, newest first *)
  infos : (int * int, info) Hashtbl.t;
}

let create seed =
  let t =
    {
      seed;
      heads = Hashtbl.create 32;
      fork = Hashtbl.create 32;
      last_merge = Hashtbl.create 8;
      branch_commits = Hashtbl.create 32;
      commits = Decibel_util.Vec.create ~dummy:Imap.empty ();
      retired = [];
      order = [ "master" ];
      infos = Hashtbl.create 4096;
    }
  in
  Hashtbl.replace t.heads "master" Imap.empty;
  t

let info t key salt =
  match Hashtbl.find_opt t.infos (key, salt) with
  | Some i -> i
  | None ->
      let tup = tuple ~seed:t.seed key salt in
      let i = { h = row_hash tup; tup } in
      Hashtbl.replace t.infos (key, salt) i;
      i

let head t b = Hashtbl.find t.heads b
let commit_content t i = Decibel_util.Vec.get t.commits i
let ncommits t = Decibel_util.Vec.length t.commits
let active t = List.filter (fun b -> not (List.mem b t.retired)) (List.rev t.order)
let branches t = List.rev t.order

let push_commit t b c =
  let i = Decibel_util.Vec.push t.commits c in
  let prev = Option.value ~default:[] (Hashtbl.find_opt t.branch_commits b) in
  Hashtbl.replace t.branch_commits b (i :: prev)

(* The base of a merge from [from] into [into]: [from]'s state at its
   previous merge into [into], else the commit [from] was forked at.
   Workloads only merge a branch into the branch it was forked from,
   and never the other way, which makes this the LCA. *)
let merge_base t ~into ~from =
  match Hashtbl.find_opt t.last_merge (from, into) with
  | Some c -> c
  | None -> Hashtbl.find t.fork from

let merged t ~into ~from =
  let base = merge_base t ~into ~from in
  let ours = head t into and theirs = head t from in
  Imap.fold
    (fun k s acc ->
      let b = Imap.find_opt k base in
      if Some s <> b && Imap.find_opt k ours = b then Imap.add k s acc else acc)
    theirs ours

let apply t op =
  match op with
  | Insert (b, k) -> Hashtbl.replace t.heads b (Imap.add k 0 (head t b))
  | Update (b, k, s) -> Hashtbl.replace t.heads b (Imap.add k s (head t b))
  | Commit b -> push_commit t b (head t b)
  | Branch (name, from, back) ->
      let i = List.nth (Hashtbl.find t.branch_commits from) back in
      let c = commit_content t i in
      Hashtbl.replace t.branch_commits name [ i ];
      Hashtbl.replace t.heads name c;
      Hashtbl.replace t.fork name c;
      t.order <- name :: t.order
  | Merge (into, from) ->
      let c = merged t ~into ~from in
      Hashtbl.replace t.last_merge (from, into) (head t from);
      Hashtbl.replace t.heads into c;
      push_commit t into c
  | Retire b -> t.retired <- b :: t.retired

(* ------------------------------------------------------------------ *)
(* expected results *)

let scan t ?pred c =
  Imap.fold
    (fun k s d ->
      let i = info t k s in
      match pred with Some p when not (holds p i.tup) -> d | _ -> add d i.h)
    c empty

let q1 t ?pred b = scan t ?pred (head t b)
let checkout t i = scan t (commit_content t i)

let q2 t b1 b2 =
  let other = head t b2 in
  Imap.fold
    (fun k s d ->
      if Imap.find_opt k other = Some s then d else add d (info t k s).h)
    (head t b1) empty

let q3 t ?pred b1 b2 =
  let right = head t b2 in
  Imap.fold
    (fun k s d ->
      match Imap.find_opt k right with
      | None -> d
      | Some s2 ->
          let i = info t k s in
          (match pred with
          | Some p when not (holds p i.tup) -> d
          | _ -> add d (pair_hash i.h (info t k s2).h)))
    (head t b1) empty

let names_hash bs = List.fold_left (fun h b -> mix (h + Hashtbl.hash b)) 0x1b873593 (List.sort compare bs)

(* Q4 rows, with the heads each is annotated with when [annotated] *)
let of_annotated l =
  List.fold_left (fun d (t, bs) -> add d (pair_hash (row_hash t) (names_hash bs))) empty l

(* distinct records over all active heads, each with the heads holding
   exactly that copy *)
let q4 t ?pred ~annotated () =
  let holders = Hashtbl.create 4096 in
  List.iter
    (fun b ->
      Imap.iter
        (fun k s ->
          Hashtbl.replace holders (k, s)
            (b :: Option.value ~default:[] (Hashtbl.find_opt holders (k, s))))
        (head t b))
    (active t);
  Hashtbl.fold
    (fun (k, s) bs d ->
      let i = info t k s in
      match pred with
      | Some p when not (holds p i.tup) -> d
      | _ -> add d (if annotated then pair_hash i.h (names_hash bs) else i.h))
    holders empty
