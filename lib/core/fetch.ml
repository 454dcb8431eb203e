module Switch_id = Dream_traffic.Switch_id
module Switch_mask = Dream_traffic.Switch_mask
module Topology = Dream_traffic.Topology
module Epoch_data = Dream_traffic.Epoch_data
module Aggregate = Dream_traffic.Aggregate
module Source = Dream_traffic.Source
module Fault_model = Dream_fault.Fault_model
module Switch = Dream_switch.Switch
module Delay_model = Dream_switch.Delay_model
module Breaker = Dream_switch.Breaker
module Tcam = Dream_switch.Tcam
module Task = Dream_tasks.Task
module Monitor = Dream_tasks.Monitor
module Obs = Dream_obs
module Ctr = Dream_obs.Registry.Counter
module Tr = Dream_obs.Trace

(* The epoch's modelled times, and the batch a read is on.  Only floats,
   so writing a field boxes nothing. *)
type times = {
  mutable retry_budget : float;
  mutable fault_ms : float;
  mutable deadline : float;
  mutable cost : float; (* [shed]'s estimate for the task at hand *)
  mutable base : float; (* the batch's modelled wire time *)
  mutable latency : float; (* the switch's latency factor *)
}

(* Bounded staleness: a task whose counters are this many epochs stale is
   never shed again, and its accuracy stops decaying. *)
let shed_max_staleness = 4

(* Only a fault model times a fetch out, so without one the budget is
   never drawn on. *)
let retry_budget_ms = Fault_model.retry_budget_fraction *. Delay_model.epoch_ms

type t = {
  switches : Switch.t array;
  faults : Fault_model.t option;
  breakers : Breaker.t array;
      (* per-switch circuit breakers; empty unless [config.degraded] and
         [config.faults] are both set *)
  breaker_gauges : Obs.Registry.Gauge.t array; (* "breaker_state", one per breaker *)
  staleness_hist : Obs.Registry.Histogram.t option; (* "task_staleness", when [breakers] exist *)
  degraded : Config.degraded option; (* only when [breakers] exist *)
  control_delay : bool;
  tallies : Metrics.Tallies.t;
  fast_path_builds : Ctr.t;
  sort_fallbacks : Ctr.t;
      (* per-switch aggregates of the epochs tasks read, split by whether
         their build skipped the combine sort *)
  trace : Tr.t option;
  mutable keys : int array; (* the read buffers the switches fill *)
  mutable vols : float array;
  mutable epoch : int;
  times : times;
  mutable unheard : Switch_mask.t; (* the switches [read]'s task could not hear from *)
  mutable order : Runtime.t array; (* [schedule]'s result in degraded mode *)
}

let create ~config ~switches ~breakers ~faults ~tallies ~registry ~trace =
  let breakers =
    match (breakers, config.Config.degraded, faults) with
    | Some restored, _, _ -> restored
    | None, Some _, Some _ -> Array.init (Array.length switches) (fun _ -> Breaker.create ())
    | None, _, _ -> [||]
  in
  {
    switches;
    faults;
    breakers;
    breaker_gauges =
      Array.init (Array.length breakers) (fun sw ->
          Obs.Registry.gauge registry ~labels:[ ("switch", string_of_int sw) ] "breaker_state");
    staleness_hist =
      (if breakers = [||] then None else Some (Obs.Registry.histogram registry "task_staleness"));
    degraded = (if breakers = [||] then None else config.Config.degraded);
    control_delay = config.Config.prototype;
    tallies;
    fast_path_builds = Obs.Registry.counter registry "aggregate_sorted_fast_path";
    sort_fallbacks = Obs.Registry.counter registry "aggregate_sort_fallbacks";
    trace;
    keys = [||];
    vols = [||];
    epoch = 0;
    times =
      { retry_budget = 0.0; fault_ms = 0.0; deadline = infinity; cost = 0.0; base = 0.0;
        latency = 1.0 };
    unheard = Switch_mask.empty;
    order = [||];
  }

let breakers f = f.breakers

let breaker_states f = Array.map Breaker.state f.breakers

(* A partitioned or breaker-skipped switch holds deferred rule updates by
   design and is reconciled once it becomes reachable again, exactly like
   a down switch. *)
let reachable f sw =
  (not (Switch.down f.switches.(sw)))
  && (not (Switch.partitioned f.switches.(sw)))
  && (Array.length f.breakers = 0
     || match Breaker.state f.breakers.(sw) with Breaker.Closed -> true | _ -> false)

let fault_ms f = f.times.fault_ms

let event f ~name fields =
  match f.trace with None -> () | Some tr -> Tr.event tr ~epoch:f.epoch ~name fields

(* ---- circuit breakers (degraded mode only; [f.breakers] is empty
   otherwise and every breaker hook below is a no-op) ---- *)

(* Apply [step] (an epoch boundary or a recorded outcome) to the switch's
   breaker, then count and trace the transition it made. *)
let[@alloc.allow "degraded mode only: a trace event"] step_breaker f sw step =
  let br = f.breakers.(sw) in
  let before = Breaker.state br in
  step br;
  match (before, Breaker.state br) with
  | Breaker.Open, Breaker.Half_open ->
    Ctr.incr f.tallies.breaker_probes;
    event f ~name:"breaker_probe" [ ("switch", Tr.Int sw) ]
  | (Breaker.Closed | Breaker.Half_open), Breaker.Open ->
    Ctr.incr f.tallies.breaker_opens;
    event f ~name:"breaker_open" [ ("switch", Tr.Int sw) ]
  | Breaker.Half_open, Breaker.Closed -> event f ~name:"breaker_close" [ ("switch", Tr.Int sw) ]
  | _ -> ()

let begin_epoch f ~epoch ~healed =
  f.epoch <- epoch;
  f.times.retry_budget <- retry_budget_ms;
  f.times.fault_ms <- 0.0;
  (match f.degraded with
  | Some d -> f.times.deadline <- d.Config.deadline_fraction *. Delay_model.epoch_ms
  | None -> f.times.deadline <- infinity);
  match f.faults with
  | None -> ()
  | Some _ ->
    for sw = 0 to Array.length f.breakers - 1 do
      (* A heal is a strong recovery signal: an open breaker in a healed
         group forfeits its cooldown and probes now instead of blindly
         waiting it out. *)
      if List.mem (Fault_model.group_of sw) healed then Breaker.hint_probe f.breakers.(sw);
      step_breaker f sw Breaker.begin_epoch;
      Obs.Registry.Gauge.set f.breaker_gauges.(sw)
        (float_of_int (Breaker.state_code (Breaker.state f.breakers.(sw)))
         [@alloc.allow "degraded mode only: a boxed gauge value"])
    done

(* Fraction of the epoch a freshly installed rule missed while its update
   was in flight (Figs 8/9's prototype-vs-simulator gap). *)
let install_miss f (r : Runtime.t) b =
  if not f.control_delay then 0.0
  else begin
    let installs = if b < 0 then 0 else r.last_install_counts.(b) in
    Delay_model.install_miss_fraction ~installs ~switches:1
  end

(* Scale this epoch's readings of the rules the last sync installed on
   bit [b] by the fraction of the epoch they missed.  Both columns are in
   key order: one two-cursor walk.  Without a miss (always, with no
   control delay) the readings stay as they are. *)
let degrade_fresh f (r : Runtime.t) b n =
  let miss = install_miss f r b in
  if miss > 0.0 && b >= 0 then begin
    let fresh = r.fresh_rules.(b) and fresh_n = r.last_install_counts.(b) in
    let j = ref 0 in
    for i = 0 to n - 1 do
      let key = f.keys.(i) in
      while !j < fresh_n && fresh.(!j) < key do
        incr j
      done;
      if !j < fresh_n && fresh.(!j) = key then f.vols.(i) <- f.vols.(i) *. (1.0 -. miss)
    done
  end

(* Keep a copy of the readings as the bit's stale fallback.  Its buffers
   grow by doubling: a new task's reading count grows for several
   epochs. *)
let save_stale f (r : Runtime.t) b n =
  let s = r.stale_counters.(b) in
  if Array.length s.Runtime.keys < n then begin
    let len = max n (2 * Array.length s.Runtime.keys) in
    s.Runtime.keys <- Array.make len 0;
    s.Runtime.vols <- Array.make len 0.0
  end;
  for i = 0 to n - 1 do
    s.Runtime.keys.(i) <- f.keys.(i)
  done;
  Array.blit f.vols 0 s.Runtime.vols 0 n;
  s.Runtime.n <- n

(* Grow the read buffers to hold [n] readings. *)
let reserve f n =
  if Array.length f.keys < n then begin
    let len = max n (2 * Array.length f.keys) in
    f.keys <- Array.make len 0;
    f.vols <- Array.make len 0.0
  end

let count_fast_path _sw agg n = if Aggregate.sorted_fast_path agg then n + 1 else n

(* Draw the task's next epoch of traffic and count how its per-switch
   aggregates were built.  Pure observability: the counters never feed
   back into simulation state.  [count_fast_path] is toplevel so the fold
   allocates no closure. *)
let draw f (r : Runtime.t) =
  let data = Source.next r.source in
  let per_switch = data.Epoch_data.per_switch in
  let fast = Switch_id.Map.fold count_fast_path per_switch 0 in
  Ctr.add f.fast_path_builds fast;
  Ctr.add f.sort_fallbacks (Switch_id.Map.cardinal per_switch - fast);
  data

(* Modelled wire time of one fetch batch of [rules] rules, into
   [f.times.base]. *)
let set_batch f rules =
  f.times.base <- (Delay_model.fetch_per_rule_ms *. float_of_int rules) +. Delay_model.rtt_ms

(* The task's rule count on a switch, without listing the rules. *)
let rules_on sw ~owner = Tcam.used_by (Switch.tcam sw) ~owner

(* Add to [f.times.cost] the modelled cost the deadline scheduler expects
   the task's fetch round to incur on the switches from [i] on: one batch
   per switch holding its rules, inflated by straggler latency.
   Partitioned switches cost their (failed) probe round trip; open-breaker
   switches cost nothing — they are skipped outright. *)
let rec estimate_cost f ~owner i =
  if i < Array.length f.switches then begin
    let sw = f.switches.(i) in
    if
      (not (Switch.down sw))
      && not (Array.length f.breakers > 0 && not (Breaker.allow f.breakers.(Switch.id sw)))
    then begin
      let rules = rules_on sw ~owner in
      if rules > 0 then begin
        let factor = Switch.latency_factor sw in
        if Switch.partitioned sw then
          f.times.cost <- f.times.cost +. (Delay_model.rtt_ms *. factor)
        else begin
          set_batch f rules;
          f.times.cost <- f.times.cost +. (f.times.base *. factor)
        end
      end
    end;
    estimate_cost f ~owner (i + 1)
  end

(* Shed before paying any wire cost: if the task's expected fetch round
   does not fit the remaining deadline budget, serve it stale — unless
   bounded staleness forces the fetch through regardless. *)
let shed f (r : Runtime.t) =
  match f.degraded with
  | Some _ when r.staleness < shed_max_staleness ->
    f.times.cost <- 0.0;
    estimate_cost f ~owner:(Runtime.id r) 0;
    f.times.cost > 0.0 && f.times.cost > f.times.deadline
  | _ -> false

(* Charge one issued batch: the aggregate TCAM stats already price its
   base cost; stragglers owe the inflation on top, and the epoch deadline
   owes the whole inflated batch. *)
let charge_batch f =
  let t = f.times in
  t.fault_ms <- t.fault_ms +. (t.base *. (t.latency -. 1.0));
  t.deadline <- t.deadline -. (t.base *. t.latency)

(* Fetch the counters of the task's column [rules] on [sw] into the read
   buffers, retrying a timed-out batch ([k] retries so far) with
   exponential backoff while the retry budget and the deadline last.
   [n >= 0] readings fetched; -1 the switch went down; -2 unreachable or
   abandoned after retries. *)
let rec attempt f sw rules aggregate k =
  let n = Switch.read sw rules aggregate ~keys:f.keys ~vols:f.vols in
  let t = f.times in
  if n >= 0 then begin
    charge_batch f;
    n
  end
  else if n = Switch.read_down then -1
  else if n = Switch.read_unreachable then begin
    (* No route: nothing was priced in the TCAM stats, but the probe still
       costs the control loop a round trip. *)
    let probe = Delay_model.rtt_ms *. t.latency in
    t.fault_ms <- t.fault_ms +. probe;
    t.deadline <- t.deadline -. probe;
    -2
  end
  else begin
    charge_batch f;
    Ctr.incr f.tallies.fetch_timeouts;
    let backoff = Float.ldexp Delay_model.rtt_ms k in
    if t.retry_budget >= backoff && t.deadline >= backoff then begin
      t.retry_budget <- t.retry_budget -. backoff;
      t.fault_ms <- t.fault_ms +. backoff;
      t.deadline <- t.deadline -. backoff;
      Ctr.incr f.tallies.fetch_retries;
      attempt f sw rules aggregate (k + 1)
    end
    else begin
      Ctr.incr f.tallies.fetch_failures;
      -2
    end
  end

(* The task cannot hear from the switch of bit [b] this epoch: report its
   last readings, if any.  A switch outside the topology (b < 0) has
   none. *)
let use_stale f (r : Runtime.t) m sw_id b =
  if b >= 0 then begin
    let s = r.stale_counters.(b) in
    if s.Runtime.n > 0 then begin
      Monitor.ingest m sw_id ~keys:s.Runtime.keys ~vols:s.Runtime.vols s.Runtime.n;
      Ctr.incr f.tallies.stale_epochs
    end;
    f.unheard <- f.unheard lor (1 lsl b)
  end

(* A shed task reports every switch of [mask] stale, in switch order
   from position [j]. *)
let rec serve_stale f r m topology order mask j =
  if j < Array.length order then begin
    let b = order.(j) in
    if Switch_mask.mem_bit b mask then use_stale f r m (Topology.switch_of_bit topology b) b;
    serve_stale f r m topology order mask (j + 1)
  end

(* Fetch the task's readings on [sw] into its monitor, or fall back on
   stale ones. *)
let read_switch f (r : Runtime.t) m data sw =
  let id = Runtime.id r and task_switches = Task.switches r.task in
  let sw_id = Switch.id sw in
  let b = Topology.bit_of_switch (Task.topology r.task) sw_id in
  if Switch.down sw then begin
    if b >= 0 && Switch_mask.mem_bit b task_switches then use_stale f r m sw_id b
  end
  else begin
    let column = Tcam.find (Switch.tcam sw) ~owner:id in
    let rules = Tcam.count column in
    let armed = Array.length f.breakers > 0 in
    if rules > 0 && armed && not (Breaker.allow f.breakers.(sw_id)) then begin
      Ctr.incr f.tallies.breaker_skips;
      use_stale f r m sw_id b
    end
    else if rules > 0 then begin
      let aggregate = Epoch_data.switch_view data sw_id in
      f.times.latency <- Switch.latency_factor sw;
      set_batch f rules;
      reserve f rules;
      let n = attempt f sw column aggregate 0 in
      if n >= 0 then begin
        if armed then step_breaker f sw_id Breaker.record_success;
        let lost = rules - n in
        if lost > 0 then Ctr.add f.tallies.counters_lost lost;
        degrade_fresh f r b n;
        (* Only a fault model can make a later fetch fall back on these,
           so fault-free checkpoints carry none. *)
        if Option.is_some f.faults && b >= 0 then save_stale f r b n;
        Monitor.ingest m sw_id ~keys:f.keys ~vols:f.vols n
      end
      else if n = -1 then use_stale f r m sw_id b
      else begin
        if armed then step_breaker f sw_id Breaker.record_failure;
        use_stale f r m sw_id b
      end
    end
  end

let rec read_from f r m data i =
  if i < Array.length f.switches then begin
    read_switch f r m data f.switches.(i);
    read_from f r m data (i + 1)
  end

let read f (r : Runtime.t) data =
  let shed = shed f r in
  if shed then begin
    Ctr.incr f.tallies.sheds;
    event f ~name:"shed" [ ("task", Tr.Int (Runtime.id r)); ("staleness", Tr.Int r.staleness) ]
  end;
  let m = Task.monitor r.task in
  Monitor.clear_readings m;
  f.unheard <- Switch_mask.empty;
  if shed then begin
    (* Traffic still flowed (the caller's draw); the task just reports
       from whatever it last heard. *)
    let topology = Task.topology r.task in
    serve_stale f r m topology (Topology.switch_order topology) (Task.switches r.task) 0
  end
  else read_from f r m data 0;
  Monitor.seal_readings m;
  f.unheard

(* Staleness-urgency order: the longest-starved tasks fetch first, so when
   the deadline budget runs out it is the freshest tasks that shed.  The
   sort is stable, so ties keep task-id order, and with all-zero staleness
   it is the identity — the zero-adversity zero-diff guarantee. *)
let rec insert order j (r : Runtime.t) =
  if j > 0 && order.(j - 1).Runtime.staleness < r.staleness then begin
    order.(j) <- order.(j - 1);
    insert order (j - 1) r
  end
  else order.(j) <- r

let schedule f runtimes n =
  match f.degraded with
  | None -> runtimes
  | Some _ ->
    if Array.length f.order < n then
      f.order <- Array.make (max n (2 * Array.length f.order)) runtimes.(0);
    for i = 0 to n - 1 do
      insert f.order i runtimes.(i)
    done;
    f.order

(* The estimators only saw stale (or no) counters for [degraded]'s
   switches, so the estimate is optimistic: decay the smoothed accuracies
   the allocator reads.  Under a partition that never heals an unbounded
   decay would drive estimates to zero and the allocator into mass drops,
   so in degraded mode it stops at [shed_max_staleness]: the estimate is
   already discounted by [stale_decay^bound] and holds there. *)
let bound_staleness f (r : Runtime.t) degraded =
  let decays =
    degraded <> Switch_mask.empty
    && match f.degraded with Some _ -> r.staleness < shed_max_staleness | None -> true
  in
  (match f.faults with
  | Some _ when decays ->
    let factor = Fault_model.stale_decay in
    let order = Topology.switch_order (Task.topology r.task) in
    for j = 0 to Array.length order - 1 do
      let bit = order.(j) in
      if Switch_mask.mem_bit bit degraded then Task.decay_accuracy r.task ~bit ~factor
    done
  | Some _ | None -> ());
  match f.staleness_hist with
  | Some hist ->
    r.staleness <- (if degraded = Switch_mask.empty then 0 else r.staleness + 1);
    Obs.Registry.Histogram.observe hist
      (float_of_int r.staleness [@alloc.allow "degraded mode only: a boxed histogram value"])
  | None -> ()
