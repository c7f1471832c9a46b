package repro.workload

import scala.util.Random

/** A copy of a query graph with different true statistics but bit-identical
  * CBO estimates — the fixture for checking that a compile-time decision
  * reads estimates only.
  */
object PerturbTruth {

  /** Multiplies each subQ's true output bytes and rows by 2^k, k ∈ {0..3}
    * drawn from `seed`, and divides its `cardErrFactor` by the same power;
    * [[QueryGraph.withOutputs]] re-derives every non-scan stage's true input.
    * Scaling by a power of two only upward keeps the CBO estimate (true
    * output × `cardErrFactor`) exact.
    */
  def apply(g: QueryGraph, seed: Long): QueryGraph = {
    val rnd = new Random(seed)
    g.withOutputs { s =>
      val f = 1L << rnd.nextInt(4)
      s.copy(trueOutBytes = s.trueOutBytes * f, trueOutRows = s.trueOutRows * f,
        cardErrFactor = s.cardErrFactor / f)
    }
  }
}
