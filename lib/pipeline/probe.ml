type uop_event = {
  mutable uop : Uop.t;
  mutable fetch : int;
  mutable dispatch : int;
  mutable issue : int;
  mutable complete : int;
  mutable commit : int;
  mutable bucket : Stall.bucket;
  mutable attributed : int;
  mutable mispredicted : bool;
  mutable dcache_miss : bool;
  mutable il1_line : int;
  mutable fetch_extra : int;
  mutable mem_extra : int;
}

type drain_event = {
  mutable reason : Uop.drain_reason;
  mutable spm_cycles : int;
  mutable start : int;
  mutable resume : int;
}

type t = {
  on_uop : uop_event -> unit;
  on_drain : drain_event -> unit;
}

let null = { on_uop = ignore; on_drain = ignore }

let uop_event () =
  {
    uop = Uop.make ();
    fetch = 0;
    dispatch = 0;
    issue = 0;
    complete = 0;
    commit = 0;
    bucket = Stall.Base;
    attributed = 0;
    mispredicted = false;
    dcache_miss = false;
    il1_line = -1;
    fetch_extra = 0;
    mem_extra = 0;
  }

let drain_event () =
  { reason = Uop.Drain_enter_secblock; spm_cycles = 0; start = 0; resume = 0 }
