module Prefix = Dream_prefix.Prefix
module Switch_mask = Dream_traffic.Switch_mask
module Topology = Dream_traffic.Topology
module Source = Dream_traffic.Source
module Task = Dream_tasks.Task
module Task_spec = Dream_tasks.Task_spec
module Ground_truth = Dream_tasks.Ground_truth
module Storage = Dream_tasks.Storage
module C = Dream_util.Codec

type readings = { mutable keys : int array; mutable vols : float array; mutable n : int }

type scores = { mutable accuracy_sum : float }

type t = {
  task : Task.t;
  source : Source.t;
  ground_truth : Ground_truth.t;
  duration : int;
  arrived_at : int;
  mutable active_epochs : int;
  mutable satisfied_epochs : int;
  scores : scores;
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
let create ~config ~pool ~id ~spec ~topology ~source ~duration ~arrived_at =
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
    active_epochs = 0;
    satisfied_epochs = 0;
    scores = { accuracy_sum = 0.0 };
    poor_streak = 0;
    last_alloc_total = 0;
    fresh_rules = storage.fresh_rules;
    last_install_counts = Array.make (Topology.switches_per_task topology) 0;
    stale_counters = storage.stale;
    staleness = 0;
  }

(* A storage is kept while the pool holds fewer entries than the most
   tasks seen live at once: the pool and the live tasks together never
   hold more storage than the peak of live tasks did. *)
let recycle pool ~live (r : t) =
  pool.limit <- max pool.limit live;
  if pool.held < pool.limit then begin
    let k = Array.length r.fresh_rules in
    let s =
      ({ tasks = Task.release r.task; fresh_rules = r.fresh_rules; stale = r.stale_counters }
      [@alloc.allow "once per retired task"])
    in
    pool.free.(k) <- (s :: pool.free.(k) [@alloc.allow "once per retired task"]);
    pool.held <- pool.held + 1
  end

let id r = Task.id r.task

let view r =
  { Dream_alloc.Task_view.id = id r; topology = Task.topology r.task; switches = Task.switches r.task }

let fill_row (v : Dream_alloc.Task_view.table) row r =
  v.ids.(row) <- id r;
  v.bounds.(row) <- (Task.spec r.task).Task_spec.accuracy_bound;
  Task.allocator_view r.task ~overall:v.overall ~used:v.used ~pos:(row * v.num_switches)
    ~num_switches:v.num_switches

(* A per-bit column: a count line under [key], then per present bit, in
   switch-id order, an [sw] line followed by the bit's value.  A column
   is read before the task that names its bits, so it decodes to (switch,
   value) entries that [column] places once the task is known. *)
let entries key value = C.repeat key (C.pair (C.int "sw") value)

let entries_of r ~present value =
  let topology = Task.topology r.task in
  List.rev
    (Switch_mask.fold topology
       (fun sw b acc -> if present b then (sw, value b) :: acc else acc)
       (Switch_mask.full topology) [])

let column topology ~what ~absent entries =
  let col = Array.init (Topology.switches_per_task topology) (fun _ -> absent ()) in
  List.iter (fun (sw, v) -> col.(Topology.parse_bit topology ~what sw) <- v) entries;
  col

let codec =
  let open C in
  let key = conv Prefix.key Prefix.of_key (Prefix.codec "p") in
  let rules =
    conv
      (fun keys -> Array.of_list (List.sort_uniq Int.compare keys))
      Array.to_list (repeat "rules" key)
  in
  let readings =
    conv
      (fun pairs ->
        { keys = Array.of_list (List.map fst pairs); vols = Array.of_list (List.map snd pairs);
          n = List.length pairs })
      (fun s -> List.init s.n (fun i -> (s.keys.(i), s.vols.(i))))
      (repeat "pairs" (pair key (float "v")))
  in
  (* A restore builds fresh storage; the ground truth's decode needs the
     task's spec. *)
  let task_source_truth ~storage =
    record
      (let* task = field (Task.codec ~storage) (fun (task, _, _) -> task) in
       let+ source = field Source.codec (fun (_, source, _) -> source)
       and+ ground_truth =
         field (Ground_truth.codec ~spec:(Task.spec task) ~storage) (fun (_, _, truth) -> truth)
       in
       (task, source, ground_truth))
  in
  delay (fun () ->
      let storage = Storage.create () in
      section "runtime"
        (record
           (let+ duration = field (int "duration") (fun r -> r.duration)
            and+ arrived_at = field (int "arrived_at") (fun r -> r.arrived_at)
            and+ active_epochs = field (int "active_epochs") (fun r -> r.active_epochs)
            and+ satisfied_epochs = field (int "satisfied_epochs") (fun r -> r.satisfied_epochs)
            and+ accuracy_sum = field (float "accuracy_sum") (fun r -> r.scores.accuracy_sum)
            and+ poor_streak = field (int "poor_streak") (fun r -> r.poor_streak)
            and+ last_alloc_total = field (int "last_alloc_total") (fun r -> r.last_alloc_total)
            and+ staleness = field (int "staleness") (fun r -> r.staleness)
            (* A switch with no fresh rules has no entry, and so does one
               with no installs; a switch never fetched has no stale entry,
               while one that answered nothing has an empty one. *)
            and+ fresh_rules =
              field (entries "fresh_rules" rules) (fun r ->
                  entries_of r
                    ~present:(fun b -> r.last_install_counts.(b) > 0)
                    (fun b -> Array.sub r.fresh_rules.(b) 0 r.last_install_counts.(b)))
            and+ installs =
              field (entries "last_install_counts" (int "installs")) (fun r ->
                  entries_of r
                    ~present:(fun b -> r.last_install_counts.(b) <> 0)
                    (Array.get r.last_install_counts))
            and+ stale =
              field (entries "stale_counters" readings) (fun r ->
                  entries_of r
                    ~present:(fun b -> r.stale_counters.(b).n >= 0)
                    (Array.get r.stale_counters))
            and+ task, source, ground_truth =
              field (task_source_truth ~storage) (fun r -> (r.task, r.source, r.ground_truth))
            in
            let topology = Task.topology task in
            let fresh_rules =
              column topology ~what:"fresh rules" ~absent:(fun () -> [||]) fresh_rules
            in
            let last_install_counts =
              column topology ~what:"an install count" ~absent:(fun () -> 0) installs
            in
            (* A switch's install count is the length of its fresh-rule column. *)
            Array.iteri
              (fun b keys ->
                if Array.length keys <> last_install_counts.(b) then
                  refuse
                    (Printf.sprintf "switch %d has %d fresh rules but an install count of %d"
                       (Topology.switch_of_bit topology b) (Array.length keys)
                       last_install_counts.(b)))
              fresh_rules;
            {
              task;
              source;
              ground_truth;
              duration;
              arrived_at;
              active_epochs;
              satisfied_epochs;
              scores = { accuracy_sum };
              poor_streak;
              last_alloc_total;
              fresh_rules;
              last_install_counts;
              stale_counters =
                column topology ~what:"stale counters"
                  ~absent:(fun () -> { keys = [||]; vols = [||]; n = -1 })
                  stale;
              staleness;
            })))
