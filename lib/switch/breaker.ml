(* Per-switch circuit breaker over the control channel.  Entirely
   deterministic: state advances only on recorded outcomes and epoch
   boundaries, never on randomness, so a fixed fault schedule always
   produces the same transition sequence. *)

let failure_threshold = 3
let cooldown_epochs = 4

type state = Closed | Open | Half_open

type t = {
  mutable state : state;
  mutable failures : int; (* consecutive failures while closed *)
  mutable cooldown_left : int; (* epochs until an open breaker probes *)
}

let create () = { state = Closed; failures = 0; cooldown_left = 0 }

let state t = t.state

let state_to_string = function Closed -> "closed" | Open -> "open" | Half_open -> "half-open"

(* Gauge encoding: healthy = 0 so dashboards sum to "how broken are we". *)
let state_code = function Closed -> 0 | Half_open -> 1 | Open -> 2

(* Observed at epoch granularity: within one controller tick a breaker can
   take several micro-steps (begin_epoch promotes Open to Half_open, then a
   probe success closes it), so Open -> Closed is a legal observation.  The
   one impossible hop is Closed -> Half_open: probing is only ever reached
   through Open, and no sequence of micro-steps hides that. *)
let legal_transition ~from ~into =
  match (from, into) with Closed, Half_open -> false | _, _ -> true

let begin_epoch t =
  match t.state with
  | Closed | Half_open -> ()
  | Open ->
      t.cooldown_left <- t.cooldown_left - 1;
      if t.cooldown_left <= 0 then t.state <- Half_open

let allow t = match t.state with Closed | Half_open -> true | Open -> false

(* External recovery evidence (e.g. a partition-heal event): an open
   breaker skips the rest of its cooldown and probes at the next epoch
   boundary.  No-op in any other state. *)
let hint_probe t = match t.state with Open -> t.cooldown_left <- 0 | Closed | Half_open -> ()

let trip t =
  t.state <- Open;
  t.failures <- 0;
  t.cooldown_left <- cooldown_epochs

let record_failure t =
  match t.state with
  | Open -> ()
  | Half_open -> trip t (* probe failed: straight back to open *)
  | Closed ->
      t.failures <- t.failures + 1;
      if t.failures >= failure_threshold then trip t

let record_success t =
  match t.state with
  | Open -> ()
  | Closed -> t.failures <- 0
  | Half_open ->
      t.state <- Closed;
      t.failures <- 0

(* ---- checkpoint serialization ---- *)

let codec =
  let open Dream_util.Codec in
  let states = List.map (fun s -> (s, state_code s)) [ Closed; Half_open; Open ] in
  record
    (let+ state = field (int_enum ~what:"breaker state" "state" states) (fun t -> t.state)
     and+ failures = field (int "failures") (fun t -> t.failures)
     and+ cooldown_left = field (int "cooldown_left") (fun t -> t.cooldown_left) in
     { state; failures; cooldown_left })
