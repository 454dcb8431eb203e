module Prefix = Dream_prefix.Prefix
module Rng = Dream_util.Rng

type kind = Heavy | Medium | Small

type source = { mutable addr : Prefix.address; mutable base : float; kind : kind }

(* The per-epoch staging, reused across epochs: one column pair per
   sub-filter, numbered by its bit and so in address order. *)
type staging = {
  counts : int array;  (** by bit: pairs staged this epoch *)
  addrs : int array array;  (** by bit, grown by doubling from 16 at first use *)
  volumes : float array array;  (** by bit, as [addrs] *)
  built : Aggregate.t array;  (** by bit: this epoch's aggregate, empty without traffic *)
  all : Aggregate.columns;  (** the network-wide view's scratch *)
}

type t = {
  rng : Rng.t;
  topology : Topology.t;
  profile : Profile.t;
  mutable epoch : int;
  mutable heavies : source list; (* active heavy sources; length varies with phases *)
  mediums : source array;
  smalls : source array;
  used : (Prefix.address, unit) Hashtbl.t; (* addresses in use, to keep sources distinct *)
  subs : (Prefix.t * Switch_id.t) array; (* topology subfilters, hoisted out of pick_address *)
  staging : staging;
}

let staging_of topology =
  let k = Topology.switches_per_task topology in
  {
    counts = Array.make k 0;
    addrs = Array.make k [||];
    volumes = Array.make k [||];
    built = Array.make k Aggregate.empty;
    all = Aggregate.columns ();
  }

let pick_address t =
  (* Place the source in a sub-filter drawn with Zipf skew, then uniformly
     within it; retry on collision so every source has a distinct address. *)
  let subs = t.subs in
  let k = Array.length subs in
  let rec attempt tries =
    let rank =
      if t.profile.Profile.switch_skew <= 0.0 then 1 + Rng.int t.rng k
      else Rng.zipf t.rng ~n:k ~s:t.profile.Profile.switch_skew
    in
    let sub, _sw = subs.(rank - 1) in
    let span = Prefix.size sub in
    let addr = Prefix.first_address sub + Rng.int t.rng span in
    if Hashtbl.mem t.used addr && tries < 64 then attempt (tries + 1)
    else begin
      Hashtbl.replace t.used addr ();
      addr
    end
  in
  attempt 0

let base_volume t kind =
  let threshold = t.profile.Profile.threshold in
  match kind with
  | Heavy ->
    (* Above threshold with a Pareto tail: drill-downs find them, and their
       magnitude spread exercises "smaller heavy hitters need more
       resources". The 1.3 factor keeps jittered volumes above threshold. *)
    Rng.pareto t.rng ~alpha:t.profile.Profile.heavy_alpha ~xmin:(threshold *. 1.3)
  | Medium ->
    (* Capped at 0.725 * threshold so jitter cannot push a medium source
       across the threshold and flap the ground truth. *)
    threshold /. 8.0 +. Rng.float t.rng (threshold *. 0.6)
  | Small -> 0.01 +. Rng.float t.rng (threshold /. 8.0)

let fresh_source t kind =
  let s = { addr = 0; base = 0.0; kind } in
  s.addr <- pick_address t;
  s.base <- base_volume t kind;
  s

let create rng ~topology ~profile =
  begin
    match Profile.validate profile with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Generator.create: " ^ msg)
  end;
  let t =
    {
      rng;
      topology;
      profile;
      epoch = 0;
      heavies = [];
      mediums = [||];
      smalls = [||];
      used = Hashtbl.create 1024;
      subs = Array.of_list (Topology.subfilters topology);
      staging = staging_of topology;
    }
  in
  let heavies = List.init profile.Profile.heavy_count (fun _ -> fresh_source t Heavy) in
  let mediums = Array.init profile.Profile.medium_count (fun _ -> fresh_source t Medium) in
  let smalls = Array.init profile.Profile.small_count (fun _ -> fresh_source t Small) in
  { t with heavies; mediums; smalls }

let codec =
  let open Dream_util.Codec in
  let source =
    record
      (let+ addr = field (int "addr") (fun s -> s.addr)
       and+ base = field (float "base") (fun s -> s.base)
       and+ kind =
         field
           (int_enum ~what:"source kind" "kind" [ (Heavy, 0); (Medium, 1); (Small, 2) ])
           (fun s -> s.kind)
       in
       { addr; base; kind })
  in
  let sources key = conv Array.of_list Array.to_list (repeat key source) in
  section "generator"
    (record
       (let+ rng = field (Rng.codec "rng") (fun t -> t.rng)
        and+ epoch = field (int "epoch") (fun t -> t.epoch)
        and+ topology = field Topology.codec (fun t -> t.topology)
        and+ profile = field Profile.codec (fun t -> t.profile)
        and+ heavies = field (repeat "heavies" source) (fun t -> t.heavies)
        and+ mediums = field (sources "mediums") (fun t -> t.mediums)
        and+ smalls = field (sources "smalls") (fun t -> t.smalls) in
        let used = Hashtbl.create 1024 in
        List.iter (fun s -> Hashtbl.replace used s.addr ()) heavies;
        Array.iter (fun s -> Hashtbl.replace used s.addr ()) mediums;
        Array.iter (fun s -> Hashtbl.replace used s.addr ()) smalls;
        {
          rng;
          topology;
          profile;
          epoch;
          heavies;
          mediums;
          smalls;
          used;
          subs = Array.of_list (Topology.subfilters topology);
          staging = staging_of topology;
        }))

let heavy_target t =
  let scale =
    List.fold_left
      (fun acc (ph : Profile.phase) -> if ph.start_epoch <= t.epoch then ph.heavy_scale else acc)
      1.0 t.profile.Profile.phases
  in
  let target = Float.round (float_of_int t.profile.Profile.heavy_count *. scale) in
  max 0 (int_of_float target)

let retire t source = Hashtbl.remove t.used source.addr

let churn_source t s =
  if t.profile.Profile.churn > 0.0 && Rng.bernoulli t.rng t.profile.Profile.churn then begin
    retire t s;
    s.addr <- pick_address t;
    s.base <- base_volume t s.kind
  end

let rec churn_list t = function
  | [] -> ()
  | s :: rest ->
    churn_source t s;
    churn_list t rest

let churn_array t sources =
  for i = 0 to Array.length sources - 1 do
    churn_source t sources.(i)
  done

let advance_population t =
  (* Phase adjustment of the heavy population. *)
  let target = heavy_target t in
  let current = List.length t.heavies in
  if target > current then begin
    let extra = List.init (target - current) (fun _ -> fresh_source t Heavy) in
    t.heavies <- List.rev_append extra t.heavies
  end
  else if target < current then begin
    let rec drop n = function
      | rest when n = 0 -> rest
      | [] -> []
      | s :: rest ->
        retire t s;
        drop (n - 1) rest
    in
    t.heavies <- drop (current - target) t.heavies
  end;
  churn_list t t.heavies;
  churn_array t t.mediums;
  churn_array t t.smalls

(* A source's volume this epoch, into [vols.(i)]. *)
let[@inline] emit_volume t s vols i =
  if t.profile.Profile.jitter <= 0.0 then vols.(i) <- s.base
  else Rng.lognormal_into t.rng ~mu:0.0 ~sigma:t.profile.Profile.jitter ~scale:s.base vols i

let grow st b =
  let n = Array.length st.addrs.(b) in
  let room = max 16 (2 * n) in
  let addrs = Array.make room 0 and volumes = Array.make room 0.0 in
  Array.blit st.addrs.(b) 0 addrs 0 n;
  Array.blit st.volumes.(b) 0 volumes 0 n;
  st.addrs.(b) <- addrs;
  st.volumes.(b) <- volumes

(* Route a source to its sub-filter's column and draw its volume there; a
   source outside every sub-filter draws nothing. *)
let stage t s =
  let b = Topology.bit_of_address t.topology s.addr in
  if b >= 0 then begin
    let st = t.staging in
    let i = st.counts.(b) in
    if i = Array.length st.addrs.(b) then grow st b;
    st.addrs.(b).(i) <- s.addr;
    emit_volume t s st.volumes.(b) i;
    st.counts.(b) <- i + 1
  end

let rec stage_list t = function
  | [] -> ()
  | s :: rest ->
    stage t s;
    stage_list t rest

let stage_array t sources =
  for i = 0 to Array.length sources - 1 do
    stage t sources.(i)
  done

(* Each switch's aggregate straight from its column, also kept in [built]. *)
let rec build_switches t b per_switch =
  let st = t.staging in
  if b = Array.length st.counts then per_switch
  else begin
    let n = st.counts.(b) in
    if n = 0 then begin
      st.built.(b) <- Aggregate.empty;
      build_switches t (b + 1) per_switch
    end
    else begin
      let a = Aggregate.of_columns st.addrs.(b) st.volumes.(b) n in
      st.built.(b) <- a;
      let sw = Topology.switch_of_bit t.topology b in
      build_switches t (b + 1) (Switch_id.Map.add sw a per_switch)
    end
  end

let next t =
  advance_population t;
  let st = t.staging in
  Array.fill st.counts 0 (Array.length st.counts) 0;
  (* Volumes are drawn in emission order: heavies, mediums, smalls. *)
  stage_list t t.heavies;
  stage_array t t.mediums;
  stage_array t t.smalls;
  let per_switch = build_switches t 0 Switch_id.Map.empty in
  (* Sub-filters are disjoint and [built] is in address order, so the
     network-wide view combines nothing and skips the sort. *)
  let combined = Aggregate.union st.all st.built in
  let data = { Epoch_data.epoch = t.epoch; per_switch; combined } in
  t.epoch <- t.epoch + 1;
  data
