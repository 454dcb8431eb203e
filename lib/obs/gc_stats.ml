type reading = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
}

let zero =
  {
    minor_words = 0.0;
    promoted_words = 0.0;
    major_words = 0.0;
    minor_collections = 0;
    major_collections = 0;
    compactions = 0;
  }

let sub a b =
  {
    minor_words = a.minor_words -. b.minor_words;
    promoted_words = a.promoted_words -. b.promoted_words;
    major_words = a.major_words -. b.major_words;
    minor_collections = a.minor_collections - b.minor_collections;
    major_collections = a.major_collections - b.major_collections;
    compactions = a.compactions - b.compactions;
  }

let add a b =
  {
    minor_words = a.minor_words +. b.minor_words;
    promoted_words = a.promoted_words +. b.promoted_words;
    major_words = a.major_words +. b.major_words;
    minor_collections = a.minor_collections + b.minor_collections;
    major_collections = a.major_collections + b.major_collections;
    compactions = a.compactions + b.compactions;
  }

type t = { read : unit -> reading }

let read t = t.read ()

(* The one blessed GC read: everything else obtains counters through a
   [t], so substituting [manual] makes a profile deterministic.  All three
   word counts are exact at one instant: [Gc.minor_words] first, then
   [Gc.counters], which copies its promoted and major counts before it
   allocates.  [Gc.counters]' own minor count lags, and [Gc.quick_stat]
   advances the major count only when the runtime flushes its pending
   major words, so a span that hosted a flush was charged every direct
   major word since the last one.  Only the collection counts come from
   [Gc.quick_stat]. *)
let sample () =
  let minor_words = Gc.minor_words () in
  let _, promoted_words, major_words = Gc.counters () in
  let s = Gc.quick_stat () in
  {
    minor_words;
    promoted_words;
    major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    compactions = s.Gc.compactions;
  }
[@@lint.allow "determinism-gc"]

(* A read allocates its own result after its sample, and that would land
   in the caller's window.  Every read therefore nets out the words of all
   reads before it: [per_read], measured on two reads back to back, times
   the reads so far.  Minor words read between two samples are then the
   caller's alone, to the word.  The GC counts words per domain, and so
   does [reads]: a read on one domain is never netted out of another's
   windows.  A domain's count is made before its first sample, so it
   lands in no window. *)
let reads = Domain.DLS.new_key (fun () -> ref 0)

let net per_read () =
  let reads = Domain.DLS.get reads in
  let r = sample () in
  let n = !reads in
  reads := n + 1;
  { r with minor_words = r.minor_words -. (float_of_int n *. per_read) }

let per_read =
  let a = net 0.0 () in
  let b = net 0.0 () in
  b.minor_words -. a.minor_words

let real = { read = net per_read }

type manual = { mutable at : reading }

let manual ?(start = zero) () =
  let m = { at = start } in
  ({ read = (fun () -> m.at) }, m)
[@@lint.allow "test fake: test/test_bench.ml"]

let advance m delta = m.at <- add m.at delta [@@lint.allow "test fake: test/test_bench.ml"]
