(** Dual-token-bucket traffic profiles.

    A flow's traffic is described by the standard dual-token-bucket regulator
    [(sigma, rho, peak, lmax)] of the paper (Section 2.1): maximum burst size
    [sigma] (bits), sustained rate [rho] (bits/s), peak rate [peak] (bits/s)
    and maximum packet size [lmax] (bits).  The arrival envelope is
    [E(t) = min (peak*t + lmax, rho*t + sigma)].

    All quantities are in bits and seconds. *)

type t = private {
  sigma : float;  (** maximum burst size, bits; [sigma >= lmax] *)
  rho : float;  (** sustained rate, bits/s; [0 < rho <= peak] *)
  peak : float;  (** peak rate, bits/s *)
  lmax : float;  (** maximum packet size, bits; [lmax > 0] *)
}

val make : sigma:float -> rho:float -> peak:float -> lmax:float -> t
(** Validates the profile.  Raises [Invalid_argument] unless
    [0 < rho <= peak], [sigma >= lmax > 0]. *)

val pp : t Fmt.t

val equal : t -> t -> bool

val t_on : t -> float
(** Maximum duration of a peak-rate burst:
    [T_on = (sigma - lmax) / (peak - rho)] (paper, below eq. (3)).
    Returns 0 for a constant-bit-rate profile ([peak = rho]). *)

val envelope : t -> float -> float
(** [envelope p t] is the maximum amount of traffic (bits) the flow may send
    in any interval of length [t >= 0]:
    [min (peak*t + lmax, rho*t + sigma)]. *)

module Sum : sig
  (** An exact running sum of profiles: the accumulator behind every
      aggregate profile.

      Each component is summed in fixed-point binary over integer limbs
      that span the whole double range, with carry and borrow, so adding
      and removing are exact and the state depends only on the multiset
      of profiles summed, never on the order of the operations.  Reading
      the sum rounds each component once, to nearest with ties to even.
      That rounding is monotone, so the sum of valid profiles reads as a
      valid profile: [sigma_a >= lmax_a] and [peak_a >= rho_a] hold
      because they hold term by term.  [add] and [remove] allocate
      nothing and, like [value], cost O(1) in the number of terms. *)

  type profile := t

  type t

  val create : unit -> t
  (** The empty sum. *)

  val add : t -> profile -> unit

  val remove : t -> profile -> unit
  (** [remove s p] takes one [p] out of [s].  Raises [Invalid_argument]
      if [s] is empty or a component would go negative, that is if [p]
      was never added; the sum is unspecified afterwards. *)

  val value : t -> profile
  (** The correctly rounded component-wise sum.  Raises
      [Invalid_argument] on the empty sum. *)
end

val aggregate : t list -> t
(** Aggregate profile of a macroflow (Section 4.1): component-wise sums
    [sigma_a = sum sigma_j], [rho_a = sum rho_j], [peak_a = sum peak_j] and
    [lmax_a = sum lmax_j] (a maximum-size packet may arrive from every
    microflow simultaneously).  Each sum is {!Sum.value}'s: exact, then
    rounded once, so the result does not depend on the order of the list;
    for integer components below 2^53 it equals the left fold bit for bit.
    Raises [Invalid_argument] on an empty list. *)

val add : t -> t -> t
(** [add a b] = [aggregate \[a; b\]], which is the IEEE sum of each
    component: one correctly rounded addition. *)

val conforms : t -> rate:float -> bool
(** [conforms p ~rate] checks [rho <= rate <= peak]: whether [rate] is an
    admissible reserved rate for the profile. *)
