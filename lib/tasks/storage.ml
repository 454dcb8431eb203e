type t = {
  mutable cap : int;
  mutable keys : Bytes.t;
  mutable masks : Bytes.t;
  mutable flags : Bytes.t;
  mutable stamps : Bytes.t;
  mutable totals : float array;
  mutable scores : float array;
  mutable means : float array;
  mutable vols : float array;
  report : Items.t;
  detections : Items.t;
  leaves : Items.t;
  truth : Items.t;
  truth_means : Items.t;
  truth_next : Items.t;
  mutable read_keys : int array;
  mutable read_vols : float array;
}

let create () =
  {
    cap = 0;
    keys = Bytes.empty;
    masks = Bytes.empty;
    flags = Bytes.empty;
    stamps = Bytes.empty;
    totals = [||];
    scores = [||];
    means = [||];
    vols = [||];
    report = Items.create ();
    detections = Items.create ~values:true ();
    leaves = Items.create ();
    truth = Items.create ();
    truth_means = Items.create ();
    truth_next = Items.create ();
    read_keys = [||];
    read_vols = [||];
  }
