module Prefix = Dream_prefix.Prefix
module Switch_mask = Dream_traffic.Switch_mask
module Topology = Dream_traffic.Topology
module Source = Dream_traffic.Source
module Task = Dream_tasks.Task
module Task_spec = Dream_tasks.Task_spec
module Ground_truth = Dream_tasks.Ground_truth
module Storage = Dream_tasks.Storage
module Monitor = Dream_tasks.Monitor
module C = Dream_util.Codec

type readings = { mutable keys : int array; mutable vols : float array; mutable n : int }

type t = {
  task : Task.t;
  source : Source.t;
  ground_truth : Ground_truth.t;
  duration : int;
  arrived_at : int;
  drop_priority : int;
  mutable active_epochs : int;
  mutable satisfied_epochs : int;
  mutable accuracy_sum : float;
  mutable poor_streak : int;
  mutable last_alloc_total : int;
  fresh_rules : int array array;
  last_install_counts : int array;
  stale_counters : readings array;
  mutable staleness : int;
}

(* A task's growable storage: the task's and its ground truth's, and the
   runtime's per-bit columns. *)
type storage = { tasks : Storage.t; fresh_rules : int array array; stale : readings array }

let fresh_storage k =
  {
    tasks = Storage.create ();
    fresh_rules = Array.make k [||];
    stale = Array.init k (fun _ -> { keys = [||]; vols = [||]; n = -1 });
  }

(* Retired tasks' storage by sub-filter count, the last returned first. *)
type pool = {
  free : storage list array;
  mutable held : int;
  mutable limit : int; (* the most tasks seen live at once *)
}

let pool () = { free = Array.make (Topology.max_switches_per_task + 1) []; held = 0; limit = 0 }

let pooled pool = pool.held

let take pool k =
  match pool.free.(k) with
  | s :: rest ->
    pool.free.(k) <- rest;
    pool.held <- pool.held - 1;
    s
  | [] -> fresh_storage k

(* Only the logical state of the storage taken is reset: no install count,
   so no fresh rule is read, and no stale reading until a fetch saves
   one. *)
let create ~config ~pool ~id ~spec ~topology ~source ~duration ~arrived_at ~drop_priority =
  let storage = take pool (Topology.switches_per_task topology) in
  let task =
    Task.create ~id ~spec ~topology ~accuracy_mode:config.Config.accuracy_mode
      ~storage:storage.tasks ()
  in
  Array.iter (fun s -> s.n <- -1) storage.stale;
  {
    task;
    source;
    ground_truth = Ground_truth.create ~storage:storage.tasks spec;
    duration;
    arrived_at;
    drop_priority;
    active_epochs = 0;
    satisfied_epochs = 0;
    accuracy_sum = 0.0;
    poor_streak = 0;
    last_alloc_total = 0;
    fresh_rules = storage.fresh_rules;
    last_install_counts = Array.make (Topology.switches_per_task topology) 0;
    stale_counters = storage.stale;
    staleness = 0;
  }

(* A storage is kept while the pool holds fewer entries than the most
   tasks seen live at once, and only if its task never ran (it is as the
   pool or [fresh_storage] gave it) or filled at least half its counter
   table: what a task grows stays with the storage, so one that served a
   larger task would hand later ones more room than growth would give
   them, and that room stays live. *)
let recycle pool ~live (r : t) =
  pool.limit <- max pool.limit live;
  let m = Task.monitor r.task in
  if pool.held < pool.limit && (r.active_epochs = 0 || 2 * m.Monitor.n >= m.Monitor.cap) then begin
    let k = Array.length r.fresh_rules in
    let s =
      ({ tasks = Task.release r.task; fresh_rules = r.fresh_rules; stale = r.stale_counters }
      [@alloc.allow "once per retired task"])
    in
    pool.free.(k) <- (s :: pool.free.(k) [@alloc.allow "once per retired task"]);
    pool.held <- pool.held + 1
  end

let id r = Task.id r.task

(* Toplevel so sorting builds no comparator closure per epoch. *)
let order a b = Int.compare (id a) (id b)
let cons _ r acc = r :: acc
let sorted active = List.sort order (Hashtbl.fold cons active [])

let view r =
  let topology = Task.topology r.task in
  {
    Dream_alloc.Task_view.id = id r;
    topology;
    switches = Task.switches r.task;
    bound = (Task.spec r.task).Task_spec.accuracy_bound;
    drop_priority = r.drop_priority;
    overall =
      (fun sw ->
        match Topology.bit_of_switch topology sw with
        | -1 -> 1.0
        | b -> Task.overall_accuracy r.task b);
    used =
      (fun sw ->
        match Topology.bit_of_switch topology sw with -1 -> 0 | b -> Task.counters_used r.task b);
  }

let emit_prefixes w key prefixes =
  C.int w key (List.length prefixes);
  List.iter (fun p -> C.string w "p" (Prefix.to_string p)) prefixes

let parse_prefixes r key =
  C.repeat (C.int_field r key) (fun () -> Prefix.of_string (C.string_field r "p"))

(* A per-bit column: a count line under [key], then per bit with
   [present b], in switch-id order, an [sw] line followed by the bit's
   value. *)
let emit_column w topology key ~present emit_value =
  let all = Switch_mask.full topology in
  C.int w key (Switch_mask.fold topology (fun _ b n -> if present b then n + 1 else n) all 0);
  Switch_mask.iter topology
    (fun sw b ->
      if present b then begin
        C.int w "sw" sw;
        emit_value b
      end)
    all

(* The (switch, value) entries of one column, read before the task names
   the bits they belong to. *)
let parse_entries r key parse =
  C.repeat (C.int_field r key) (fun () ->
      let sw = C.int_field r "sw" in
      (sw, parse ()))

let column topology ~what ~absent entries =
  let col = Array.init (Topology.switches_per_task topology) (fun _ -> absent ()) in
  List.iter (fun (sw, v) -> col.(Topology.parse_bit topology ~what sw) <- v) entries;
  col

let emit w r =
  C.section w "runtime";
  C.int w "duration" r.duration;
  C.int w "arrived_at" r.arrived_at;
  C.int w "drop_priority" r.drop_priority;
  C.int w "active_epochs" r.active_epochs;
  C.int w "satisfied_epochs" r.satisfied_epochs;
  C.float w "accuracy_sum" r.accuracy_sum;
  C.int w "poor_streak" r.poor_streak;
  C.int w "last_alloc_total" r.last_alloc_total;
  C.int w "staleness" r.staleness;
  let topology = Task.topology r.task in
  (* A switch with no fresh rules has no entry, and so does one with no
     installs; a switch never fetched has no stale entry, while one that
     answered nothing has an empty one. *)
  emit_column w topology "fresh_rules"
    ~present:(fun b -> r.last_install_counts.(b) > 0)
    (fun b ->
      emit_prefixes w "rules"
        (List.init r.last_install_counts.(b) (fun i -> Prefix.of_key r.fresh_rules.(b).(i))));
  emit_column w topology "last_install_counts"
    ~present:(fun b -> r.last_install_counts.(b) <> 0)
    (fun b -> C.int w "installs" r.last_install_counts.(b));
  emit_column w topology "stale_counters"
    ~present:(fun b -> r.stale_counters.(b).n >= 0)
    (fun b ->
      let s = r.stale_counters.(b) in
      C.int w "pairs" s.n;
      for i = 0 to s.n - 1 do
        C.string w "p" (Prefix.to_string (Prefix.of_key s.keys.(i)));
        C.float w "v" s.vols.(i)
      done);
  Task.emit w r.task;
  Source.emit w r.source;
  Ground_truth.emit w r.ground_truth

let parse r =
  C.expect_section r "runtime";
  let duration = C.int_field r "duration" in
  let arrived_at = C.int_field r "arrived_at" in
  let drop_priority = C.int_field r "drop_priority" in
  let active_epochs = C.int_field r "active_epochs" in
  let satisfied_epochs = C.int_field r "satisfied_epochs" in
  let accuracy_sum = C.float_field r "accuracy_sum" in
  let poor_streak = C.int_field r "poor_streak" in
  let last_alloc_total = C.int_field r "last_alloc_total" in
  let staleness = C.int_field r "staleness" in
  let fresh_rules =
    parse_entries r "fresh_rules" (fun () ->
        Array.of_list (List.sort_uniq Int.compare (List.map Prefix.key (parse_prefixes r "rules"))))
  in
  let last_install_counts =
    parse_entries r "last_install_counts" (fun () -> C.int_field r "installs")
  in
  let stale_counters =
    parse_entries r "stale_counters" (fun () ->
        let pairs =
          C.repeat (C.int_field r "pairs") (fun () ->
              let p = Prefix.of_string (C.string_field r "p") in
              (Prefix.key p, C.float_field r "v"))
        in
        {
          keys = Array.of_list (List.map fst pairs);
          vols = Array.of_list (List.map snd pairs);
          n = List.length pairs;
        })
  in
  (* A restore builds fresh storage. *)
  let storage = Storage.create () in
  let task = Task.parse r ~storage in
  let topology = Task.topology task in
  let fresh_rules = column topology ~what:"fresh rules" ~absent:(fun () -> [||]) fresh_rules in
  let last_install_counts =
    column topology ~what:"an install count" ~absent:(fun () -> 0) last_install_counts
  in
  (* A switch's install count is the length of its fresh-rule column. *)
  Array.iteri
    (fun b keys ->
      if Array.length keys <> last_install_counts.(b) then
        C.parse_error 0
          (Printf.sprintf "switch %d has %d fresh rules but an install count of %d"
             (Topology.switch_of_bit topology b) (Array.length keys) last_install_counts.(b)))
    fresh_rules;
  let source = Source.parse r in
  let ground_truth = Ground_truth.parse r ~spec:(Task.spec task) ~storage in
  {
    task;
    source;
    ground_truth;
    duration;
    arrived_at;
    drop_priority;
    active_epochs;
    satisfied_epochs;
    accuracy_sum;
    poor_streak;
    last_alloc_total;
    fresh_rules;
    last_install_counts;
    stale_counters =
      column topology ~what:"stale counters"
        ~absent:(fun () -> { keys = [||]; vols = [||]; n = -1 })
        stale_counters;
    staleness;
  }
