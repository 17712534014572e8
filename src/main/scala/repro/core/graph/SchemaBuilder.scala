package repro.core.graph

import scala.collection.mutable

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core.embed.EmbeddingOps
import repro.core.profile.{ColumnProfile, FineGrainedType}
import repro.substrate.rdf.Triple

/** Data Global Schema builder — Alg. 3, one pass on the driver over the
  * collected column profiles; it runs no Spark job.
  *
  * The metadata subgraph holds each dataset's and table's hierarchy
  * triples once, in order of first appearance, then each column's
  * hierarchy and statistics triples. The similarity edges come from a
  * dense kernel: the columns are grouped by fine-grained type, each
  * vector's sum of squares is computed once, and every pair of columns of
  * one type in different tables is scored, emitting
  *
  *  - `LabelSimilarity` when label-embedding cosine ≥ α;
  *  - `ContentSimilarity` when CoLR cosine ≥ θ (non-boolean), or when
  *    1 − |trueRatio_i − trueRatio_j| ≥ β (boolean).
  *
  * The cosines are [[EmbeddingOps.cosine]]'s, summed in the same order,
  * so the edge weights are those of comparing each pair on its own.
  * Similarity edges are emitted in both directions so graph queries need
  * no symmetric closure.
  */
object SchemaBuilder {

  /** User-defined similarity thresholds (α label, β boolean, θ content). */
  case class Thresholds(alpha: Double = 0.80, beta: Double = 0.90, theta: Double = 0.80)

  /** Full data global schema: metadata, then similarity edges (Alg. 3). */
  def triples(profiles: Seq[ColumnProfile], th: Thresholds = Thresholds()): Seq[Triple] =
    metadata(profiles) ++ similarities(profiles, th)

  /** Metadata subgraph (hierarchy + statistics). */
  def metadata(profiles: Seq[ColumnProfile]): Seq[Triple] = {
    val g        = Lids.DefaultGraph
    val datasets = mutable.HashSet.empty[String]
    val tables   = mutable.HashSet.empty[String]
    profiles.flatMap { p =>
      val ds  = Lids.datasetUri(p.datasetName)
      val tbl = Lids.tableUri(p.datasetName, p.tableName)
      val c   = Lids.columnUri(p.datasetName, p.tableName, p.columnName)
      (if (datasets.add(ds))
         Seq(Triple(g, ds, Lids.Prop.RdfType, Lids.Cls.Dataset),
             Triple(g, ds, Lids.Prop.HasLabel, p.datasetName))
       else Nil) ++
      (if (tables.add(tbl))
         Seq(Triple(g, tbl, Lids.Prop.RdfType, Lids.Cls.Table),
             Triple(g, tbl, Lids.Prop.HasLabel, p.tableName),
             Triple(g, tbl, Lids.Prop.IsPartOf, ds))
       else Nil) ++
      Seq(
        Triple(g, c, Lids.Prop.RdfType, Lids.Cls.Column),
        Triple(g, c, Lids.Prop.HasLabel, p.columnName),
        Triple(g, c, Lids.Prop.IsPartOf, tbl),
        Triple(g, c, Lids.Prop.HasDataType, p.fgType),
        Triple(g, c, Lids.Prop.HasTotalRows, p.totalCount.toString),
        Triple(g, c, Lids.Prop.HasMissingCount, p.nullCount.toString),
        Triple(g, c, Lids.Prop.HasDistinctCount, p.distinctCount.toString),
      ) ++
      (if (p.fgType == FineGrainedType.Boolean)
         Seq(Triple(g, c, Lids.Prop.HasTrueRatio, f"${p.trueRatio}%.4f"))
       else Nil)
    }
  }

  /** Column-similarity edges (Alg. 3 lines 7–19): per fine-grained type,
    * in order of first appearance, the pairs i < j of columns in
    * different tables, in profile order.
    */
  def similarities(profiles: Seq[ColumnProfile], th: Thresholds = Thresholds()): Seq[Triple] = {
    val out = mutable.ArrayBuffer.empty[Triple]
    def emit(ci: String, cj: String, pred: String, score: Double): Unit = {
      out += Triple(Lids.DefaultGraph, ci, pred, cj, score)
      out += Triple(Lids.DefaultGraph, cj, pred, ci, score)
    }
    val tableIds = mutable.HashMap.empty[String, Int]
    profiles.map(_.fgType).distinct.foreach { fgType =>
      val cols      = profiles.filter(_.fgType == fgType).toArray
      val uris      = cols.map(Lids.ResourcePrefix + _.columnId)
      val table     = cols.map(p => tableIds.getOrElseUpdate(p.tableId, tableIds.size))
      val labels    = cols.map(_.labelEmbedding)
      val labelSq   = labels.map(EmbeddingOps.sumOfSquares)
      val boolean   = fgType == FineGrainedType.Boolean
      val content   = cols.map(_.embedding)
      val contentSq = content.map(EmbeddingOps.sumOfSquares)
      val contentTh = if (boolean) th.beta else th.theta
      var i = 0
      while (i < cols.length) {
        var j = i + 1
        while (j < cols.length) {
          if (table(i) != table(j)) {
            val labelSim = EmbeddingOps.cosine(
              EmbeddingOps.dot(labels(i), labels(j)), labelSq(i), labelSq(j))
            if (labelSim >= th.alpha) emit(uris(i), uris(j), Lids.Prop.LabelSimilarity, labelSim)
            val contentSim =
              if (boolean) 1.0 - math.abs(cols(i).trueRatio - cols(j).trueRatio)
              else EmbeddingOps.cosine(
                EmbeddingOps.dot(content(i), content(j)), contentSq(i), contentSq(j))
            if (contentSim >= contentTh)
              emit(uris(i), uris(j), Lids.Prop.ContentSimilarity, contentSim)
          }
          j += 1
        }
        i += 1
      }
    }
    out.toSeq
  }

  /** [[metadata]] of the collected `profiles`, as a local Dataset. */
  def metadataGraph(spark: SparkSession, profiles: Dataset[ColumnProfile]): Dataset[Triple] = {
    import spark.implicits._
    spark.createDataset(metadata(profiles.collect().toSeq))
  }

  /** [[similarities]] of the collected `profiles`, as a local Dataset. */
  def similarityGraph(spark: SparkSession, profiles: Dataset[ColumnProfile],
                      th: Thresholds = Thresholds()): Dataset[Triple] = {
    import spark.implicits._
    spark.createDataset(similarities(profiles.collect().toSeq, th))
  }

  /** [[triples]] of the collected `profiles`, as a local Dataset. */
  def build(spark: SparkSession, profiles: Dataset[ColumnProfile],
            th: Thresholds = Thresholds()): Dataset[Triple] = {
    import spark.implicits._
    spark.createDataset(triples(profiles.collect().toSeq, th))
  }
}
