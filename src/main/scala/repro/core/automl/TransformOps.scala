package repro.core.automl

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import CleaningOps.{orOne, orZero, statistics}

/** The transformation operations the transformation GNNs choose among
  * (§4.3): table-level scalers (StandardScaler, MinMaxScaler,
  * RobustScaler) applied to all numeric features, and unary per-column
  * transformations (log, sqrt). Scaling is recommended before unary
  * transforms, per the paper. Each reads its column statistics in one
  * pass and rewrites the columns in one projection.
  */
object TransformOps {

  val StandardScaler = "StandardScaler"
  val MinMaxScaler   = "MinMaxScaler"
  val RobustScaler   = "RobustScaler"
  val NoScaler       = "NoScaler"

  /** Scaler class order of the table-transformation GNN. */
  val Scalers: Seq[String] = Seq(StandardScaler, MinMaxScaler, RobustScaler, NoScaler)

  val Log  = "log"
  val Sqrt = "sqrt"
  val None = "none"

  /** Unary class order of the column-transformation GNN. */
  val Unaries: Seq[String] = Seq(Log, Sqrt, None)

  /** Apply a named scaler to all given numeric columns: each becomes
    * `(x - centre) / scale`. An all-null or zero-row column is centred
    * on 0, and a zero or undefined scale is 1, so its nulls stay null.
    */
  def scale(df: DataFrame, cols: Seq[String], scaler: String): DataFrame = {
    def pairs(stats: Seq[Column]): Seq[(Double, Double)] = {
      val r = statistics(df, stats)
      cols.indices.map(i => (r.getDouble(2 * i), r.getDouble(2 * i + 1)))
    }
    val centreScale = scaler match {
      case NoScaler => return df
      case StandardScaler =>
        pairs(cols.flatMap(c => Seq(orZero(avg(col(c))), orOne(stddev_pop(col(c))))))
      case MinMaxScaler =>
        pairs(cols.flatMap(c => Seq(orZero(min(col(c))), orOne(max(col(c)) - min(col(c))))))
      case RobustScaler =>
        df.stat.approxQuantile(cols.toArray, Array(0.25, 0.5, 0.75), 0.01).toSeq.map {
          case Array(q1, med, q3) => (med, if (q3 - q1 == 0.0) 1.0 else q3 - q1)
          case _                  => (0.0, 1.0) // no quantiles: all-null or zero-row
        }
      case other => throw new IllegalArgumentException(s"unknown scaler $other")
    }
    df.withColumns(cols.zip(centreScale).map { case (c, (centre, scale)) =>
      c -> (col(c) - lit(centre)) / lit(scale)
    }.toMap)
  }

  /** Apply each column's unary transform. `log`/`sqrt` are shifted by
    * the column's minimum when it is negative, to tolerate non-positive
    * values (sklearn pipelines do the same with `log1p` after clipping);
    * one aggregate reads every minimum.
    */
  def unary(df: DataFrame, ops: Seq[(String, String)]): DataFrame = {
    val fns = ops.filter(_._2 != None).map {
      case (c, Log)   => c -> ((x: Column) => log1p(x))
      case (c, Sqrt)  => c -> ((x: Column) => sqrt(x))
      case (_, other) => throw new IllegalArgumentException(s"unknown unary transform $other")
    }
    if (fns.isEmpty) return df
    val lows = statistics(df, fns.map { case (c, _) => orZero(min(col(c))) })
    df.withColumns(fns.zipWithIndex.map { case ((c, fn), i) =>
      val lo = lows.getDouble(i)
      c -> fn(col(c) + lit(if (lo < 0.0) -lo else 0.0))
    }.toMap)
  }
}
