module Rng = Dream_util.Rng
module Switch_id = Dream_traffic.Switch_id

type spec = {
  seed : int;
  crash_rate : float;
  fetch_timeout_rate : float;
  counter_loss_rate : float;
  install_failure_rate : float;
  perturb_stddev : float;
  controller_crash_rate : float;
  partition_rate : float;
  mean_partition : float;
  partition_eligible : int;
  straggler_fraction : float;
  straggler_slowdown : float;
  storm_rate : float;
}

let mean_downtime = 4.0
let stale_decay = 0.9
let retry_budget_fraction = 0.5
let partition_groups = 4
let storm_size = 6

let zero =
  {
    seed = 0;
    crash_rate = 0.0;
    fetch_timeout_rate = 0.0;
    counter_loss_rate = 0.0;
    install_failure_rate = 0.0;
    perturb_stddev = 0.0;
    controller_crash_rate = 0.0;
    partition_rate = 0.0;
    mean_partition = 8.0;
    partition_eligible = 4;
    straggler_fraction = 0.0;
    straggler_slowdown = 4.0;
    storm_rate = 0.0;
  }

(* NaN fails both [< 0.0] and [> 1.0], so range checks must be written
   positively or NaN slips through every rate knob. *)
let in_unit v = v >= 0.0 && v <= 1.0

let uniform ?(seed = 0) rate =
  if not (in_unit rate) then invalid_arg "Fault_model.uniform: rate must be in [0, 1]";
  {
    zero with
    seed;
    (* Crashes are an order of magnitude rarer than transient faults, as in
       any real deployment: a lossy channel is common, a dead switch is not. *)
    crash_rate = rate /. 10.0;
    fetch_timeout_rate = rate;
    counter_loss_rate = rate;
    install_failure_rate = rate;
    perturb_stddev = rate /. 10.0;
  }

let adversity ?(seed = 0) level =
  if not (in_unit level) then invalid_arg "Fault_model.adversity: level must be in [0, 1]";
  {
    zero with
    seed;
    (* Sustained adversity, not point faults: lossy channels plus partition
       windows, slow control channels on half the fleet, and tenant storms.
       At level 0 every rate is zero, so the spec injects nothing. *)
    fetch_timeout_rate = 0.25 *. level;
    partition_rate = 0.1 *. level;
    mean_partition = 10.0;
    straggler_fraction = 0.5 *. level;
    straggler_slowdown = 1.0 +. (3.0 *. level);
    storm_rate = 0.1 *. level;
  }

let pp_spec ppf s =
  Format.fprintf ppf
    "seed=%d crash=%g timeout=%g loss=%g install_fail=%g perturb=%g ctrl_crash=%g partition=%g \
     partition_mean=%g eligible=%d straggler=%g slowdown=%g storm=%g"
    s.seed s.crash_rate s.fetch_timeout_rate s.counter_loss_rate s.install_failure_rate
    s.perturb_stddev s.controller_crash_rate s.partition_rate s.mean_partition
    s.partition_eligible s.straggler_fraction s.straggler_slowdown s.storm_rate

let validate spec =
  let check_rate name v =
    if not (in_unit v) then
      invalid_arg (Printf.sprintf "Fault_model: %s must be in [0, 1], got %g" name v)
  in
  check_rate "crash_rate" spec.crash_rate;
  check_rate "fetch_timeout_rate" spec.fetch_timeout_rate;
  check_rate "counter_loss_rate" spec.counter_loss_rate;
  check_rate "install_failure_rate" spec.install_failure_rate;
  if not (spec.perturb_stddev >= 0.0 && Float.is_finite spec.perturb_stddev) then
    invalid_arg "Fault_model: perturb_stddev must be finite and >= 0";
  check_rate "controller_crash_rate" spec.controller_crash_rate;
  check_rate "partition_rate" spec.partition_rate;
  if not (spec.mean_partition >= 1.0) then
    invalid_arg "Fault_model: mean_partition must be >= 1 epoch";
  if spec.partition_eligible < 0 then invalid_arg "Fault_model: partition_eligible must be >= 0";
  check_rate "straggler_fraction" spec.straggler_fraction;
  if not (spec.straggler_slowdown >= 1.0 && Float.is_finite spec.straggler_slowdown) then
    invalid_arg "Fault_model: straggler_slowdown must be >= 1";
  check_rate "storm_rate" spec.storm_rate

type switch_state = {
  lifecycle : Rng.t; (* crash / recovery draws *)
  data : Rng.t; (* timeout / loss / install / perturbation draws *)
  mutable down_until : int; (* first epoch the switch is back up; <= epoch means up *)
}

type events = {
  crashed : Switch_id.t list;
  recovered : Switch_id.t list;
  controller_crashed : bool;
  partitioned : int list;
  healed : int list;
  storm_tasks : int;
}

(* Scripted injections: explicit timed events the chaos harness stages on
   top of the organic rate-driven faults.  They fire when their epoch
   equals the post-increment epoch inside [begin_epoch], consume no
   randomness, and are serialized whole in checkpoints so a restored run
   replays the identical timeline. *)
type injection =
  | Crash of { switch : Switch_id.t; downtime : int }
  | Controller_crash
  | Partition of { group : int; span : int }
  | Heal of { group : int }
  | Storm of { tasks : int }
  | Noise of { span : int; timeout_rate : float; loss_rate : float; perturb_stddev : float }

type t = {
  spec : spec;
  states : switch_state array;
  controller : Rng.t; (* controller-crash draws, one per epoch *)
  partition : Rng.t; (* per-group partition window draws *)
  storm : Rng.t; (* admission-storm draws, one per epoch *)
  partition_until : int array; (* per group; <= epoch means reachable *)
  stragglers : bool array; (* per switch, fixed at creation *)
  mutable epoch : int;
  mutable injections : (int * injection) list; (* (at, event), in staging order *)
  (* Effective data-path rates for the current epoch: max of the spec rate
     and every open noise window.  Derived from [injections], never
     serialized. *)
  mutable noise_timeout : float;
  mutable noise_loss : float;
  mutable noise_perturb : float;
}

let group_of sw = sw mod partition_groups

let create spec ~num_switches =
  validate spec;
  if num_switches <= 0 then invalid_arg "Fault_model.create: num_switches must be positive";
  (* One master stream expands the seed; each switch then owns two
     independent streams, so per-switch event sequences do not depend on the
     order (or number) of draws made for other switches. *)
  let master = Rng.create spec.seed in
  let states =
    Array.init num_switches (fun _ ->
        let lifecycle = Rng.split master in
        let data = Rng.split master in
        { lifecycle; data; down_until = 0 })
  in
  (* Split after the per-switch streams: adding controller crashes must not
     perturb the switch fault schedules existing experiments replay. *)
  let controller = Rng.split master in
  (* Adversity streams split after everything PR 1 and PR 4 established, and
     straggler selection only draws when the fraction is positive, so specs
     that predate sustained adversity replay byte-identically. *)
  let partition = Rng.split master in
  let storm = Rng.split master in
  let select = Rng.split master in
  let stragglers = Array.make num_switches false in
  if spec.straggler_fraction > 0.0 then begin
    let order = Array.init num_switches (fun i -> i) in
    Rng.shuffle select order;
    let slow =
      int_of_float (Float.round (spec.straggler_fraction *. float_of_int num_switches))
    in
    Array.iteri (fun rank sw -> if rank < slow then stragglers.(sw) <- true) order
  end;
  let partition_until = Array.make partition_groups 0 in
  { spec; states; controller; partition; storm; partition_until; stragglers; epoch = 0;
    injections = [];
    noise_timeout = 0.0; noise_loss = 0.0; noise_perturb = 0.0 }

let spec t = t.spec

let state t sw =
  if sw < 0 || sw >= Array.length t.states then
    invalid_arg (Printf.sprintf "Fault_model: unknown switch %d" sw);
  t.states.(sw)

let is_down t sw = (state t sw).down_until > t.epoch

let down_count t =
  Array.fold_left (fun acc s -> if s.down_until > t.epoch then acc + 1 else acc) 0 t.states

(* ---- scripted injections ---- *)

let check ~num_switches inj =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match inj with
  | Crash { switch; downtime } ->
    if switch < 0 || switch >= num_switches then err "crash: unknown switch %d" switch
    else if downtime < 1 then err "crash: downtime %d < 1" downtime
    else Ok ()
  | Controller_crash -> Ok ()
  | Partition { group; span } ->
    if group < 0 || group >= partition_groups then err "partition: unknown group %d" group
    else if span < 1 then err "partition: span %d < 1" span
    else Ok ()
  | Heal { group } ->
    if group < 0 || group >= partition_groups then err "heal: unknown group %d" group else Ok ()
  | Storm { tasks } -> if tasks < 1 then err "storm: tasks %d < 1" tasks else Ok ()
  | Noise { span; timeout_rate; loss_rate; perturb_stddev } ->
    if span < 1 then err "noise: span %d < 1" span
    else if not (in_unit timeout_rate) then err "noise: timeout_rate out of [0, 1]"
    else if not (in_unit loss_rate) then err "noise: loss_rate out of [0, 1]"
    else if not (perturb_stddev >= 0.0 && Float.is_finite perturb_stddev) then
      err "noise: perturb_stddev must be finite and >= 0"
    else Ok ()

let check_model t inj =
  check ~num_switches:(Array.length t.states) inj

let schedule t ~at inj =
  if at <= t.epoch then
    invalid_arg
      (Printf.sprintf "Fault_model.schedule: at=%d is not in the future (epoch %d)" at t.epoch);
  match check_model t inj with
  | Error msg -> invalid_arg ("Fault_model.schedule: " ^ msg)
  | Ok () -> t.injections <- t.injections @ [ (at, inj) ]

let pending_injections t =
  List.fold_left
    (fun acc (at, inj) ->
      let pending = match inj with Noise { span; _ } -> at + span > t.epoch | _ -> at > t.epoch in
      if pending then acc + 1 else acc)
    0 t.injections

(* Apply [f] to each injection staged for [epoch], in staging order. *)
let rec scripted epoch f = function
  | [] -> ()
  | (at, inj) :: rest ->
    if at = epoch then f inj;
    scripted epoch f rest

let recompute_noise t =
  let timeout = ref 0.0 and loss = ref 0.0 and perturb = ref 0.0 in
  List.iter
    (function
      | at, Noise { span; timeout_rate; loss_rate; perturb_stddev }
        when at <= t.epoch && t.epoch < at + span ->
        timeout := Float.max !timeout timeout_rate;
        loss := Float.max !loss loss_rate;
        perturb := Float.max !perturb perturb_stddev
      | _ -> ())
    t.injections;
  t.noise_timeout <- !timeout;
  t.noise_loss <- !loss;
  t.noise_perturb <- !perturb

let begin_epoch t =
  t.epoch <- t.epoch + 1;
  let crashed = ref [] and recovered = ref [] in
  Array.iteri
    (fun sw s ->
      if s.down_until > 0 && s.down_until = t.epoch then recovered := sw :: !recovered;
      (* [<] not [<=]: a switch that recovered this very epoch gets one
         epoch of grace, so its recovery (and the controller's rule
         reinstall) is never voided before it was ever visible. *)
      if s.down_until < t.epoch && t.spec.crash_rate > 0.0
         && Rng.bernoulli s.lifecycle t.spec.crash_rate
      then begin
        let downtime =
          max 1 (int_of_float (Float.round (Rng.exponential s.lifecycle mean_downtime)))
        in
        s.down_until <- t.epoch + downtime;
        crashed := sw :: !crashed
      end)
    t.states;
  (* Scripted crashes after organic ones; the same one-epoch grace applies,
     so a scheduled crash aimed at a switch that is down (or just recovered
     this epoch) is silently skipped rather than voiding a recovery the
     controller never saw. *)
  scripted t.epoch (function
    | Crash { switch; downtime } when t.states.(switch).down_until < t.epoch ->
      t.states.(switch).down_until <- t.epoch + downtime;
      crashed := switch :: !crashed
    | _ -> ())
    t.injections;
  let controller_crashed =
    (t.spec.controller_crash_rate > 0.0
     && Rng.bernoulli t.controller t.spec.controller_crash_rate)
    || List.exists (function at, Controller_crash -> at = t.epoch | _ -> false) t.injections
  in
  let partitioned = ref [] and healed = ref [] in
  Array.iteri
    (fun g until ->
      if until > 0 && until = t.epoch then healed := g :: !healed;
      (* Same one-epoch grace as crash recovery: a group that just healed is
         reachable for at least one epoch before it can partition again. *)
      if g < t.spec.partition_eligible && until < t.epoch && t.spec.partition_rate > 0.0
         && Rng.bernoulli t.partition t.spec.partition_rate
      then begin
        let span =
          max 1 (int_of_float (Float.round (Rng.exponential t.partition t.spec.mean_partition)))
        in
        t.partition_until.(g) <- t.epoch + span;
        partitioned := g :: !partitioned
      end)
    t.partition_until;
  (* Scripted partitions may target any group (the harness sidesteps
     [partition_eligible] deliberately) but still honour the heal grace. *)
  scripted t.epoch (function
    | Partition { group; span } when t.partition_until.(group) < t.epoch ->
      t.partition_until.(group) <- t.epoch + span;
      partitioned := group :: !partitioned
    | _ -> ())
    t.injections;
  (* A scripted heal closes an open window early and always surfaces the
     group in [healed], even when no window is open: the controller reacts
     by hinting breaker probes, which is exactly the probe/heal race the
     chaos harness wants to provoke. *)
  scripted t.epoch (function
    | Heal { group } ->
      if t.partition_until.(group) > t.epoch then t.partition_until.(group) <- t.epoch;
      if not (List.mem group !healed) then healed := group :: !healed
    | _ -> ())
    t.injections;
  let storm_tasks =
    (if t.spec.storm_rate > 0.0 && Rng.bernoulli t.storm t.spec.storm_rate then storm_size
     else 0)
    + List.fold_left
        (fun acc (at, inj) ->
          match inj with Storm { tasks } when at = t.epoch -> acc + tasks | _ -> acc)
        0 t.injections
  in
  recompute_noise t;
  {
    crashed = List.rev !crashed;
    recovered = List.rev !recovered;
    controller_crashed;
    partitioned = List.rev !partitioned;
    healed = List.rev !healed;
    storm_tasks;
  }

let fetch_times_out t sw =
  let s = state t sw in
  let rate = Float.max t.spec.fetch_timeout_rate t.noise_timeout in
  rate > 0.0 && Rng.bernoulli s.data rate

let install_fails t sw =
  let s = state t sw in
  t.spec.install_failure_rate > 0.0 && Rng.bernoulli s.data t.spec.install_failure_rate

let degrade t sw ~keys ~vols n =
  let s = state t sw in
  Rng.thin_jitter s.data
    ~loss:(Float.max t.spec.counter_loss_rate t.noise_loss)
    ~stddev:(Float.max t.spec.perturb_stddev t.noise_perturb)
    ~keys ~vols n

let is_partitioned t sw =
  let _ = state t sw in
  t.partition_until.(group_of sw) > t.epoch

let partitioned_count t =
  let n = ref 0 in
  for sw = 0 to Array.length t.states - 1 do
    if is_partitioned t sw then incr n
  done;
  !n

let is_straggler t sw =
  let _ = state t sw in
  t.stragglers.(sw)

let latency_factor t sw = if is_straggler t sw then t.spec.straggler_slowdown else 1.0

(* ---- checkpoint serialization ---- *)

let spec_codec =
  let open Dream_util.Codec in
  record
    (let+ seed = field (int "seed") (fun s -> s.seed)
     and+ crash_rate = field (float "crash_rate") (fun s -> s.crash_rate)
     and+ fetch_timeout_rate = field (float "fetch_timeout_rate") (fun s -> s.fetch_timeout_rate)
     and+ counter_loss_rate = field (float "counter_loss_rate") (fun s -> s.counter_loss_rate)
     and+ install_failure_rate =
       field (float "install_failure_rate") (fun s -> s.install_failure_rate)
     and+ perturb_stddev = field (float "perturb_stddev") (fun s -> s.perturb_stddev)
     and+ controller_crash_rate =
       field (float "controller_crash_rate") (fun s -> s.controller_crash_rate)
     and+ partition_rate = field (float "partition_rate") (fun s -> s.partition_rate)
     and+ mean_partition = field (float "mean_partition") (fun s -> s.mean_partition)
     and+ partition_eligible = field (int "partition_eligible") (fun s -> s.partition_eligible)
     and+ straggler_fraction = field (float "straggler_fraction") (fun s -> s.straggler_fraction)
     and+ straggler_slowdown = field (float "straggler_slowdown") (fun s -> s.straggler_slowdown)
     and+ storm_rate = field (float "storm_rate") (fun s -> s.storm_rate) in
     let spec =
       {
         seed;
         crash_rate;
         fetch_timeout_rate;
         counter_loss_rate;
         install_failure_rate;
         perturb_stddev;
         controller_crash_rate;
         partition_rate;
         mean_partition;
         partition_eligible;
         straggler_fraction;
         straggler_slowdown;
         storm_rate;
       }
     in
     validate spec;
     spec)

let kind = function
  | Crash _ -> 0
  | Controller_crash -> 1
  | Partition _ -> 2
  | Heal _ -> 3
  | Storm _ -> 4
  | Noise _ -> 5

(* A checkpoint holds the scripted injections, past ones included, as one
   block per kind in [kind] order: an [inj_*] count, then per injection
   its epoch and its payload.  Replaying the full timeline keeps the round
   trip exact, and a spent event (at <= epoch) can never refire. *)
let injections_codec =
  let open Dream_util.Codec in
  let other () = invalid_arg "Fault_model: an injection of another kind" in
  let entry payload = pair (int "at") payload in
  let block k name entry =
    field (repeat name entry) (List.filter (fun (_, inj) -> kind inj = k))
  in
  let crash =
    record
      (let+ switch = field (int "switch") (function Crash c -> c.switch | _ -> other ())
       and+ downtime = field (int "downtime") (function Crash c -> c.downtime | _ -> other ()) in
       Crash { switch; downtime })
  in
  let partition =
    record
      (let+ group = field (int "group") (function Partition p -> p.group | _ -> other ())
       and+ span = field (int "span") (function Partition p -> p.span | _ -> other ()) in
       Partition { group; span })
  in
  let heal =
    conv (fun group -> Heal { group }) (function Heal h -> h.group | _ -> other ()) (int "group")
  in
  let storm =
    conv (fun tasks -> Storm { tasks }) (function Storm s -> s.tasks | _ -> other ()) (int "tasks")
  in
  let noise =
    record
      (let+ span = field (int "span") (function Noise n -> n.span | _ -> other ())
       and+ timeout_rate =
         field (float "timeout_rate") (function Noise n -> n.timeout_rate | _ -> other ())
       and+ loss_rate = field (float "loss_rate") (function Noise n -> n.loss_rate | _ -> other ())
       and+ perturb_stddev =
         field (float "perturb_stddev") (function Noise n -> n.perturb_stddev | _ -> other ())
       in
       Noise { span; timeout_rate; loss_rate; perturb_stddev })
  in
  (* Blocks come back in kind order, each kind in its staging order: the
     same events fire in the same order as before the round trip. *)
  record
    (let+ crashes = block 0 "inj_crashes" (entry crash)
     and+ ctrl_crashes =
       block 1 "inj_ctrl_crashes" (conv (fun at -> (at, Controller_crash)) fst (int "at"))
     and+ partitions = block 2 "inj_partitions" (entry partition)
     and+ heals = block 3 "inj_heals" (entry heal)
     and+ storms = block 4 "inj_storms" (entry storm)
     and+ noises = block 5 "inj_noise" (entry noise) in
     List.concat [ crashes; ctrl_crashes; partitions; heals; storms; noises ])

let codec =
  let open Dream_util.Codec in
  let switch_state =
    record
      (let+ lifecycle = field (Rng.codec "lifecycle") (fun s -> s.lifecycle)
       and+ data = field (Rng.codec "data") (fun s -> s.data)
       and+ down_until = field (int "down_until") (fun s -> s.down_until) in
       { lifecycle; data; down_until })
  in
  let array n d = conv Array.of_list Array.to_list (exactly n d) in
  (* A count line, the switches' states, then one straggler flag each. *)
  let switches =
    record
      (let* n = field (int "switches") (fun (states, _) -> Array.length states) in
       let+ states = field (array n switch_state) fst
       and+ stragglers = field (array n (bool "straggler")) snd in
       (states, stragglers))
  in
  section "fault_model"
    (record
       (let+ spec = field spec_codec (fun t -> t.spec)
        and+ epoch = field (int "epoch") (fun t -> t.epoch)
        and+ controller = field (Rng.codec "controller") (fun t -> t.controller)
        and+ partition = field (Rng.codec "partition") (fun t -> t.partition)
        and+ storm = field (Rng.codec "storm") (fun t -> t.storm)
        and+ partition_until =
          field (array partition_groups (int "partition_until")) (fun t -> t.partition_until)
        and+ states, stragglers = field switches (fun t -> (t.states, t.stragglers))
        and+ injections = field injections_codec (fun t -> t.injections) in
        let t =
          { spec; states; controller; partition; storm; partition_until; stragglers; epoch;
            injections; noise_timeout = 0.0; noise_loss = 0.0; noise_perturb = 0.0 }
        in
        List.iter
          (fun (_, inj) ->
            match check_model t inj with
            | Ok () -> ()
            | Error msg -> invalid_arg ("Fault_model.parse: scripted " ^ msg))
          injections;
        recompute_noise t;
        t))
