type stat = { path : string; count : int; wall_ms : float; gc : Gc_stats.reading }

type span = int

(* Three cells per span, at [cells * span + part]: the open fragment's
   start, this epoch's sum and the sum over closed epochs.  Wall times are
   a float array; a cell's GC reading is three floats of [words] (minor,
   promoted, major) and three ints of [tallies] (minor and major
   collections, compactions), at [3 * cell].  So start and stop box
   nothing and build no reading; GC cells are touched only when the
   profile has a GC source. *)
let cells = 3

let opened = 0

let current = 1

let closed = 2

let cell span part = (cells * span) + part

type t = {
  clock : Clock.t;
  gc : Gc_stats.t option;
  ids : (string, span) Hashtbl.t;
  mutable paths : string array;  (** by span *)
  mutable counts : int array;  (** closed epochs, by span *)
  mutable ms : float array;
  mutable words : float array;
  mutable tallies : int array;
  now : float array; (* the clock read a [stop] takes *)
}

let make clock gc =
  {
    clock;
    gc;
    ids = Hashtbl.create 8;
    paths = [||];
    counts = [||];
    ms = [||];
    words = [||];
    tallies = [||];
    now = [| 0.0 |];
  }

let create ?(clock = Clock.cpu) ?(gc = Gc_stats.real) () = make clock (Some gc)

let wall_only () = make Clock.cpu None

let extend a n fill = Array.append a (Array.make n fill)

let intern t path =
  match Hashtbl.find_opt t.ids path with
  | Some span -> span
  | None ->
    let span = Array.length t.paths in
    Hashtbl.replace t.ids path span;
    t.paths <- extend t.paths 1 path;
    t.counts <- extend t.counts 1 0;
    t.ms <- extend t.ms cells 0.0;
    t.words <- extend t.words (3 * cells) 0.0;
    t.tallies <- extend t.tallies (3 * cells) 0;
    span

let path t span = t.paths.(span)

(* The GC reads sit innermost, so a span is charged only its body.  The
   clock writes its reading into the float columns: no float is boxed. *)
let start t span =
  Clock.write t.clock t.ms (cell span opened);
  match t.gc with
  | Some g ->
    let r = Gc_stats.read g and o = 3 * cell span opened in
    t.words.(o) <- r.Gc_stats.minor_words;
    t.words.(o + 1) <- r.Gc_stats.promoted_words;
    t.words.(o + 2) <- r.Gc_stats.major_words;
    t.tallies.(o) <- r.Gc_stats.minor_collections;
    t.tallies.(o + 1) <- r.Gc_stats.major_collections;
    t.tallies.(o + 2) <- r.Gc_stats.compactions
  | None -> ()

(* This epoch's cell gains the delta since the fragment opened, field by
   field in place, so the enclosing span is charged nothing for it. *)
let stop t span =
  let i = cell span current and o = cell span opened in
  begin
    match t.gc with
    | Some g ->
      let r = Gc_stats.read g and c = 3 * i and o = 3 * o and w = t.words and n = t.tallies in
      w.(c) <- w.(c) +. (r.Gc_stats.minor_words -. w.(o));
      w.(c + 1) <- w.(c + 1) +. (r.Gc_stats.promoted_words -. w.(o + 1));
      w.(c + 2) <- w.(c + 2) +. (r.Gc_stats.major_words -. w.(o + 2));
      n.(c) <- n.(c) + (r.Gc_stats.minor_collections - n.(o));
      n.(c + 1) <- n.(c + 1) + (r.Gc_stats.major_collections - n.(o + 1));
      n.(c + 2) <- n.(c + 2) + (r.Gc_stats.compactions - n.(o + 2))
    | None -> ()
  end;
  Clock.write t.clock t.now 0;
  t.ms.(i) <- t.ms.(i) +. (t.now.(0) -. t.ms.(o))

let epoch_ms t span = t.ms.(cell span current)

let close_epoch t =
  for span = 0 to Array.length t.paths - 1 do
    let cur = cell span current and total = cell span closed in
    t.counts.(span) <- t.counts.(span) + 1;
    t.ms.(total) <- t.ms.(total) +. t.ms.(cur);
    t.ms.(cur) <- 0.0;
    if Option.is_some t.gc then
      for f = 0 to 2 do
        let c = (3 * cur) + f and s = (3 * total) + f in
        t.words.(s) <- t.words.(s) +. t.words.(c);
        t.words.(c) <- 0.0;
        t.tallies.(s) <- t.tallies.(s) + t.tallies.(c);
        t.tallies.(c) <- 0
      done
  done

let stat t span =
  let total = cell span closed in
  let w = 3 * total in
  let gc =
    {
      Gc_stats.minor_words = t.words.(w);
      promoted_words = t.words.(w + 1);
      major_words = t.words.(w + 2);
      minor_collections = t.tallies.(w);
      major_collections = t.tallies.(w + 1);
      compactions = t.tallies.(w + 2);
    }
  in
  { path = t.paths.(span); count = t.counts.(span); wall_ms = t.ms.(total); gc }

let stats t =
  List.init (Array.length t.paths) (stat t)
  |> List.filter (fun s -> s.count > 0)
  |> List.sort (fun a b -> String.compare a.path b.path)

let find t path =
  match Hashtbl.find_opt t.ids path with
  | Some span when t.counts.(span) > 0 -> Some (stat t span)
  | Some _ | None -> None

(* Allocated words this epoch: minor allocations plus direct major
   allocations; promoted words would otherwise be counted twice. *)
let observe_epoch registry t span =
  let wall_ms = epoch_ms t span and c = 3 * cell span current in
  let words = t.words.(c) +. t.words.(c + 2) -. t.words.(c + 1) in
  let major_collections = t.tallies.(c + 1) in
  Registry.Histogram.observe (Registry.histogram registry "epoch_alloc_words") words;
  if wall_ms > 0.0 then
    Registry.Gauge.set (Registry.gauge registry "alloc_rate_words_per_ms") (words /. wall_ms);
  Registry.Counter.add (Registry.counter registry "gc_minor_collections") t.tallies.(c);
  Registry.Counter.add (Registry.counter registry "gc_major_collections") major_collections;
  Registry.Counter.add (Registry.counter registry "gc_compactions") t.tallies.(c + 2);
  if major_collections > 0 then
    Registry.Histogram.observe (Registry.histogram registry "gc_major_epoch_ms") wall_ms

(* ---- snapshot codec ---- *)

let stats_json =
  let open Dream_util.Codec in
  let words key proj = field (float key) (fun (s : stat) -> proj s.gc) in
  let tally key proj = field (int key) (fun (s : stat) -> proj s.gc) in
  repeat "phases"
    (record
       (let+ path = field (string "path") (fun s -> s.path)
        and+ count = field (int "count") (fun s -> s.count)
        and+ wall_ms = field (float "wall_ms") (fun s -> s.wall_ms)
        and+ minor_words = words "minor_words" (fun g -> g.Gc_stats.minor_words)
        and+ promoted_words = words "promoted_words" (fun g -> g.Gc_stats.promoted_words)
        and+ major_words = words "major_words" (fun g -> g.Gc_stats.major_words)
        and+ minor_collections = tally "minor_collections" (fun g -> g.Gc_stats.minor_collections)
        and+ major_collections = tally "major_collections" (fun g -> g.Gc_stats.major_collections)
        and+ compactions = tally "compactions" (fun g -> g.Gc_stats.compactions) in
        let gc =
          { Gc_stats.minor_words; promoted_words; major_words; minor_collections;
            major_collections; compactions }
        in
        { path; count; wall_ms; gc }))
