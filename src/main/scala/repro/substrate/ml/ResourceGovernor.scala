package repro.substrate.ml

/** Budgeted execution for baseline systems (HoloClean, AutoLearn).
  *
  * The paper runs baselines on a 189 GB VM and reports OOM / 3-hour
  * timeouts on the largest datasets. Our container is smaller, so the
  * baselines meter their own materialized state (co-occurrence tables,
  * generated feature matrices) through `charge`, and poll `checkTime`
  * inside their main loops; the governor raises the same failure the
  * paper records, at budgets scaled to the container. Budgets are
  * explicit constructor inputs so the Table 5/6 benches document them.
  */
final class ResourceGovernor(
    val memoryBudgetBytes: Long,
    val timeBudgetMillis: Long,
) {
  private var used    = 0L
  private val started = System.nanoTime()

  /** Bytes of baseline state materialized so far. */
  def usedBytes: Long = used

  def elapsedMillis: Long = (System.nanoTime() - started) / 1000000L

  /** Register newly materialized state; throws when over budget. */
  def charge(bytes: Long): Unit = {
    used += bytes
    if (used > memoryBudgetBytes)
      throw ResourceGovernor.OutOfMemoryBudget(used, memoryBudgetBytes)
  }

  /** Check that a transient allocation (freed after the step, e.g. a
    * pairwise distance matrix) would fit alongside current state;
    * throws without accumulating.
    */
  def ensureFits(bytes: Long): Unit = {
    if (used + bytes > memoryBudgetBytes)
      throw ResourceGovernor.OutOfMemoryBudget(used + bytes, memoryBudgetBytes)
  }

  /** Poll the wall clock; throws when over the time budget. */
  def checkTime(): Unit = {
    if (elapsedMillis > timeBudgetMillis)
      throw ResourceGovernor.TimeBudgetExceeded(elapsedMillis, timeBudgetMillis)
  }
}

object ResourceGovernor {
  final case class OutOfMemoryBudget(usedBytes: Long, budgetBytes: Long)
      extends RuntimeException(
        s"materialized $usedBytes bytes > budget $budgetBytes (OOM)")

  final case class TimeBudgetExceeded(elapsedMillis: Long, budgetMillis: Long)
      extends RuntimeException(
        s"elapsed ${elapsedMillis}ms > budget ${budgetMillis}ms (TO)")

  /** Outcome wrapper used by the Table 5/6 benches. */
  sealed trait Outcome[+A]
  final case class Ok[A](value: A, millis: Long, peakBytes: Long) extends Outcome[A]
  final case class Oom(millis: Long)                              extends Outcome[Nothing]
  final case class Timeout(millis: Long)                          extends Outcome[Nothing]

  /** Run a governed thunk and classify its outcome. */
  def run[A](memoryBudgetBytes: Long, timeBudgetMillis: Long)(
      body: ResourceGovernor => A): Outcome[A] = {
    val gov = new ResourceGovernor(memoryBudgetBytes, timeBudgetMillis)
    try {
      val v = body(gov)
      Ok(v, gov.elapsedMillis, gov.usedBytes)
    } catch {
      case _: OutOfMemoryBudget => Oom(gov.elapsedMillis)
      case _: TimeBudgetExceeded => Timeout(gov.elapsedMillis)
    }
  }
}
