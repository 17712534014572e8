package repro.bench

/** The wall-clock timer of the table harnesses: one sample for a run too
  * long to repeat, or a warm, alternating median to compare systems.
  */
object Timing {

  /** Timed samples per system in [[warmMedian]]. */
  val Samples = 5

  /** `body`'s result and its wall time in seconds, from one run. */
  def once[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Each system's result and its median wall time in seconds. Every
    * system first runs once untimed (the warm-up, whose result is
    * returned); then [[Samples]] rounds time one run of each, the rounds
    * alternating which system goes first.
    */
  def warmMedian[A](systems: Seq[() => A]): Seq[(A, Double)] = {
    val warm = systems.map(_())
    val secs = (0 until Samples).flatMap { round =>
      val order = if (round % 2 == 0) systems.indices else systems.indices.reverse
      order.map(i => i -> once(systems(i)())._2)
    }.groupMap(_._1)(_._2)
    systems.indices.map { i =>
      val sorted = secs(i).sorted
      (warm(i), sorted(sorted.size / 2))
    }
  }
}
