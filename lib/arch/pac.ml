type key = { k0 : int64; k1 : int64 }

let key_of_int64s k0 k1 = { k0; k1 }
let random_key ~rng = { k0 = rng (); k1 = rng () }
let key_equal a b = Int64.equal a.k0 b.k0 && Int64.equal a.k1 b.k1

(* A SipHash-flavoured ARX round: not QARMA, but a keyed mixing function
   with full 64-bit diffusion, which is all the security argument needs. *)
let rotl x n = Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

let mix v =
  let v = Int64.mul v 0xff51afd7ed558ccdL in
  let v = Int64.logxor v (Int64.shift_right_logical v 33) in
  let v = Int64.mul v 0xc4ceb9fe1a85ec53L in
  Int64.logxor v (Int64.shift_right_logical v 29)

let mac key ~modifier value =
  let v0 = Int64.logxor key.k0 0x736f6d6570736575L in
  let v1 = Int64.logxor key.k1 0x646f72616e646f6dL in
  let h = Int64.logxor (mix (Int64.logxor v0 value)) (rotl v1 13) in
  let h = mix (Int64.logxor h modifier) in
  mix (Int64.add h (rotl v0 32))

type config = { layout : Ptr.pac_layout; fpac : bool }

let default_config = { layout = { Ptr.mte_enabled = true }; fpac = true }

let canonical cfg p = Ptr.clear_pac_field cfg.layout p

let signature cfg key ~modifier p =
  let bits = Ptr.pac_bits cfg.layout in
  let m = mac key ~modifier (canonical cfg p) in
  Int64.to_int (Int64.logand m (Int64.of_int ((1 lsl bits) - 1)))

let sign cfg key ~modifier p =
  let p = canonical cfg p in
  if Obs.Hook.enabled () then Obs.Hook.event (Obs.Event.Pac_sign { ptr = p });
  Ptr.with_pac_field cfg.layout p (signature cfg key ~modifier p)

type auth_result = Valid of Ptr.t | Invalid_trap | Invalid_poisoned of Ptr.t

(* Poison marker: flip the second-highest signature bit of the canonical
   pointer, mirroring the architected error-code placement. *)
let poison_bit cfg = Ptr.pac_bits cfg.layout - 2

let poison cfg p =
  Ptr.with_pac_field cfg.layout (canonical cfg p) (1 lsl poison_bit cfg)

let is_poisoned cfg p = Ptr.pac_field cfg.layout p = 1 lsl poison_bit cfg

(* Chaos hooks: corrupt the incoming signature just before the
   authenticate — a forged (bit-flipped) or stripped signature must be
   rejected exactly like any attacker-made pointer. *)
let corrupt cfg ln p =
  let p =
    if Fault_inject.draw ln Fault_inject.Pac_forge then begin
      let bits = Ptr.pac_bits cfg.layout in
      let bit = Fault_inject.rand_int ln bits in
      Fault_inject.note ln "signature bit %d flipped before autda" bit;
      Ptr.with_pac_field cfg.layout p
        (Ptr.pac_field cfg.layout p lxor (1 lsl bit))
    end
    else p
  in
  if Fault_inject.draw ln Fault_inject.Pac_strip then begin
    Fault_inject.note ln "signature stripped (xpacd) before autda";
    canonical cfg p
  end
  else p

let auth ?chaos cfg key ~modifier p =
  let p = match chaos with None -> p | Some ln -> corrupt cfg ln p in
  let expect = signature cfg key ~modifier (canonical cfg p) in
  let ok = Ptr.pac_field cfg.layout p = expect in
  if Obs.Hook.enabled () then
    Obs.Hook.event (Obs.Event.Pac_auth { ptr = canonical cfg p; ok });
  if ok then Valid (canonical cfg p)
  else if cfg.fpac then Invalid_trap
  else Invalid_poisoned (poison cfg p)

let strip cfg p = canonical cfg p
