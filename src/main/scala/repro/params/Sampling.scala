package repro.params

import scala.util.Random

/** Deterministic samplers over unit hypercubes, used to draw `θ` candidates.
  *
  * The paper collects training traces with Latin Hypercube Sampling [31] and
  * initializes HMOOC's `θc` candidates by random sampling or grid search
  * (§5.1.1). Here every candidate set is an LHS draw: the training traces,
  * HMOOC's pool and `θc` seeds, MO-WS's samples and the runtime hooks'
  * `θp`/`θs` candidates (all but the traces [[refine]]d), each reproducible
  * in its `seed`.
  */
object Sampling {

  /** `n` Latin-Hypercube points in `[0,1]^dim`: each dimension is split into
    * `n` strata and every stratum is hit exactly once per dimension.
    */
  def latinHypercube(n: Int, dim: Int, seed: Long): Vector[Vector[Double]] = {
    require(n > 0 && dim > 0, "need positive n and dim")
    val rnd = new Random(seed)
    val cols = Vector.fill(dim) {
      val perm = rnd.shuffle((0 until n).toVector)
      perm.map(s => (s + rnd.nextDouble()) / n)
    }
    Vector.tabulate(n)(i => Vector.tabulate(dim)(d => cols(d)(i)))
  }

  /** Shrink unit coordinates away from the domain boundaries (§6.3: the
    * end-to-end deployment "refines the search range for each parameter by
    * avoiding the extreme values" where model predictions are unreliable).
    */
  def refine(u: Vector[Double]): Vector[Double] = {
    val margin = 0.08
    u.map(x => margin + (1.0 - 2.0 * margin) * x)
  }

  /** Evenly spaced 2-D weight pairs `(w, 1-w)` used by weighted-sum solvers. */
  def weightPairs(n: Int): Vector[(Double, Double)] = {
    require(n >= 2, "need at least 2 weight pairs")
    Vector.tabulate(n) { i => val w = i.toDouble / (n - 1); (w, 1.0 - w) }
  }
}
