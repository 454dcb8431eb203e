module Rng = Dream_util.Rng
module Fault_model = Dream_fault.Fault_model

type event =
  | Fault of { at : int; fault : Fault_model.injection }
  | Torn_tail of { at : int; drop : int }
  | Checkpoint of { at : int }

type t = { seed : int; horizon : int; events : event list }

let at_of = function Fault { at; _ } | Torn_tail { at; _ } | Checkpoint { at } -> at

let kind_of = function
  | Fault { fault = Crash _; _ } -> "switch_crash"
  | Fault { fault = Controller_crash; _ } -> "controller_crash"
  | Fault { fault = Partition _; _ } -> "partition"
  | Fault { fault = Heal _; _ } -> "heal_hint"
  | Fault { fault = Storm _; _ } -> "storm"
  | Fault { fault = Noise _; _ } -> "noise"
  | Torn_tail _ -> "torn_tail"
  | Checkpoint _ -> "checkpoint"

let pp_event ppf e =
  let p fmt = Format.fprintf ppf ("@%d %s" ^^ fmt) (at_of e) (kind_of e) in
  match e with
  | Fault { fault = Crash { switch; downtime }; _ } ->
    p " sw=%d downtime=%d" switch downtime
  | Fault { fault = Controller_crash; _ } | Checkpoint _ -> p ""
  | Fault { fault = Partition { group; span }; _ } -> p " group=%d span=%d" group span
  | Fault { fault = Heal { group }; _ } -> p " group=%d" group
  | Fault { fault = Storm { tasks }; _ } -> p " tasks=%d" tasks
  | Fault { fault = Noise { span; timeout_rate; loss_rate; perturb_stddev }; _ } ->
    p " span=%d timeout=%.2f loss=%.2f perturb=%.2f" span timeout_rate loss_rate perturb_stddev
  | Torn_tail { drop; _ } -> p " drop=%d" drop

(* Generation weights, out of 100.  Partitions, storms and noise are the
   interesting composers (they interact with breakers, admission and the
   retry budget); torn tails and checkpoints are oracle probes and need
   fewer samples. *)
let generate ~seed ~num_switches ~horizon ~events =
  if num_switches < 1 then invalid_arg "Schedule.generate: num_switches must be >= 1";
  if horizon < 2 then invalid_arg "Schedule.generate: horizon must be >= 2";
  if events < 0 then invalid_arg "Schedule.generate: events must be >= 0";
  let rng = Rng.create seed and groups = Fault_model.partition_groups in
  let gen () =
    (* Leave the final epoch event-free so every window has at least one
       epoch to be observed in. *)
    let at = 1 + Rng.int rng (horizon - 1) in
    let fault f = Fault { at; fault = f } in
    match Rng.int rng 100 with
    | k when k < 18 ->
      fault (Crash { switch = Rng.int rng num_switches; downtime = 1 + Rng.int rng 6 })
    | k when k < 34 -> fault (Partition { group = Rng.int rng groups; span = 1 + Rng.int rng 8 })
    | k when k < 44 -> fault (Heal { group = Rng.int rng groups })
    | k when k < 60 -> fault (Storm { tasks = 1 + Rng.int rng 4 })
    | k when k < 74 ->
      fault
        (Noise
           {
             span = 1 + Rng.int rng 6;
             timeout_rate = 0.2 +. Rng.float rng 0.6;
             loss_rate = Rng.float rng 0.5;
             perturb_stddev = Rng.float rng 0.3;
           })
    | k when k < 84 -> fault Controller_crash
    | k when k < 92 -> Torn_tail { at; drop = Rng.int rng 48 }
    | _ -> Checkpoint { at }
  in
  let evs = List.init events (fun _ -> gen ()) in
  (* Stable: events sharing an epoch keep generation order, so a schedule
     prints and replays identically. *)
  { seed; horizon; events = List.stable_sort (fun a b -> Int.compare (at_of a) (at_of b)) evs }

let validate ~num_switches t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let check e =
    let at = at_of e in
    if at < 1 || at > t.horizon then
      err "event %s: epoch %d outside [1, %d]" (kind_of e) at t.horizon
    else begin
      match e with
      | Fault { fault; _ } -> Fault_model.check ~num_switches fault
      | Torn_tail { drop; _ } -> if drop < 0 then err "torn_tail: drop %d < 0" drop else Ok ()
      | Checkpoint _ -> Ok ()
    end
  in
  if t.horizon < 2 then err "horizon %d is too short" t.horizon
  else List.fold_left (fun acc e -> Result.bind acc (fun () -> check e)) (Ok ()) t.events

(* Stage every scripted fault of the schedule; [Torn_tail] and
   [Checkpoint] are harness-level probes and stay out of the model. *)
let stage t fm =
  List.iter
    (function
      | Fault { at; fault } -> Fault_model.schedule fm ~at fault | Torn_tail _ | Checkpoint _ -> ())
    t.events

(* ---- shrinking candidates ---- *)

(* Strictly-smaller variants of one event, largest reduction first.  The
   shrinker tries each; every variant reduces an integer measure, so
   event-level shrinking terminates. *)
let shrink_event e =
  let ints v mk = if v > 1 then (if v / 2 >= 1 && v / 2 < v then [ mk (v / 2) ] else []) @ [ mk 1 ] else [] in
  match e with
  | Fault { at; fault } -> begin
    let mk f = Fault { at; fault = f } in
    match fault with
    | Crash { switch; downtime } ->
      ints downtime (fun downtime -> mk (Crash { switch; downtime }))
    | Partition { group; span } ->
      ints span (fun span -> mk (Partition { group; span }))
    | Storm { tasks } -> ints tasks (fun tasks -> mk (Storm { tasks }))
    | Noise n ->
      (if n.span > 1 then [ mk (Noise { n with span = n.span / 2 }) ] else [])
      @ (if n.loss_rate > 0.0 then [ mk (Noise { n with loss_rate = 0.0 }) ] else [])
      @ (if n.perturb_stddev > 0.0 then [ mk (Noise { n with perturb_stddev = 0.0 }) ]
         else [])
      @
      if n.timeout_rate > 0.25 then
        [ mk (Noise { n with timeout_rate = n.timeout_rate /. 2.0 }) ]
      else []
    | Controller_crash | Heal _ -> []
  end
  | Torn_tail { at; drop } -> if drop > 0 then [ Torn_tail { at; drop = drop / 2 } ] else []
  | Checkpoint _ -> []

(* ---- JSON description (reproducer files) ---- *)

(* Every event is its kind, its epoch, then the fields of its kind. *)
let event_json =
  let open Dream_util.Codec in
  let at proj = field (int "at") proj in
  let kind tag fields inject project =
    case tag
      (record (let+ at = at fst and+ x = fields in (at, x)))
      (fun (at, x) -> inject at x)
      (fun e -> Option.map (fun x -> (at_of e, x)) (project e))
  in
  let only_at tag inject project =
    case tag (record (at Fun.id)) inject (fun e -> if project e then Some (at_of e) else None)
  in
  let int2 k1 k2 =
    let+ a = field (int k1) (fun (_, (a, _)) -> a) and+ b = field (int k2) (fun (_, (_, b)) -> b) in
    (a, b)
  in
  let int1 k = field (int k) snd in
  cases ~what:"event kind" ~key:"kind"
    [
      kind "switch_crash" (int2 "switch" "downtime")
        (fun at (switch, downtime) -> Fault { at; fault = Crash { switch; downtime } })
        (function
          | Fault { fault = Crash { switch; downtime }; _ } -> Some (switch, downtime) | _ -> None);
      only_at "controller_crash"
        (fun at -> Fault { at; fault = Controller_crash })
        (function Fault { fault = Controller_crash; _ } -> true | _ -> false);
      kind "partition" (int2 "group" "span")
        (fun at (group, span) -> Fault { at; fault = Partition { group; span } })
        (function Fault { fault = Partition { group; span }; _ } -> Some (group, span) | _ -> None);
      kind "heal_hint" (int1 "group")
        (fun at group -> Fault { at; fault = Heal { group } })
        (function Fault { fault = Heal { group }; _ } -> Some group | _ -> None);
      kind "storm" (int1 "tasks")
        (fun at tasks -> Fault { at; fault = Storm { tasks } })
        (function Fault { fault = Storm { tasks }; _ } -> Some tasks | _ -> None);
      kind "noise"
        (let+ span = field (int "span") (fun (_, (s, _, _, _)) -> s)
         and+ timeout_rate = field (float "timeout_rate") (fun (_, (_, r, _, _)) -> r)
         and+ loss_rate = field (float "loss_rate") (fun (_, (_, _, r, _)) -> r)
         and+ perturb_stddev = field (float "perturb") (fun (_, (_, _, _, p)) -> p) in
         (span, timeout_rate, loss_rate, perturb_stddev))
        (fun at (span, timeout_rate, loss_rate, perturb_stddev) ->
          Fault { at; fault = Noise { span; timeout_rate; loss_rate; perturb_stddev } })
        (function
          | Fault { fault = Noise { span; timeout_rate; loss_rate; perturb_stddev }; _ } ->
            Some (span, timeout_rate, loss_rate, perturb_stddev)
          | _ -> None);
      kind "torn_tail" (int1 "drop")
        (fun at drop -> Torn_tail { at; drop })
        (function Torn_tail { drop; _ } -> Some drop | _ -> None);
      only_at "checkpoint"
        (fun at -> Checkpoint { at })
        (function Checkpoint _ -> true | _ -> false);
    ]

let json =
  Dream_util.Codec.(
    record
      (let+ seed = field (int "seed") (fun t -> t.seed)
       and+ horizon = field (int "horizon") (fun t -> t.horizon)
       and+ events = field (repeat "events" event_json) (fun t -> t.events) in
       { seed; horizon; events }))
