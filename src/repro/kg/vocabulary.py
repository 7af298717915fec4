"""Curated concept vocabulary used to build the synthetic ConceptNet.

The original SCADS is built over ConceptNet 5.5 + ImageNet-21k, which cannot
be shipped offline.  Instead we curate a compact ontology that covers the
concepts the paper's four target tasks actually touch:

* the ten Flickr Material Database classes and their closely-related
  concepts (the ``plastic`` and ``stone`` neighbourhoods mirror Figure 4),
* the 65 Office-Home object classes grouped into semantic families,
* the 42 Grocery Store classes (with ``oatghurt`` and ``soygurt``
  intentionally *absent*, as in the paper, to exercise SCADS extensibility),
* a procedural "haystack" of filler concepts standing in for the rest of
  ImageNet-21k.

The graph generator (:mod:`repro.kg.generator`) expands every leaf class with
additional derived related concepts so that SCADS always has a pool of
semantically-close auxiliary classes to retrieve.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = [
    "TOP_LEVEL_DOMAINS",
    "MATERIAL_TREE",
    "FMD_CLASSES",
    "OFFICE_HOME_GROUPS",
    "OFFICE_HOME_CLASSES",
    "GROCERY_GROUPS",
    "GROCERY_CLASSES",
    "GROCERY_OOV_CLASSES",
    "GROCERY_OOV_ANCHORS",
    "RELATED_SUFFIXES",
    "RELATED_PREFIXES",
]

#: Children of the ontology root ``entity``.
TOP_LEVEL_DOMAINS: List[str] = [
    "material", "object", "food", "organism", "place", "abstraction",
]

#: Material taxonomy: FMD class -> closely related concepts (IsA children).
#: The ``plastic`` and ``stone`` neighbourhoods reproduce the concept lists
#: shown in the paper's Figure 4.
MATERIAL_TREE: Dict[str, List[str]] = {
    "fabric": ["cotton", "wool", "silk", "denim", "linen", "velvet", "felt",
               "canvas", "tweed", "corduroy"],
    "foliage": ["leaf", "fern", "grass_blade", "ivy", "moss", "shrub",
                "palm_frond", "pine_needle", "bamboo_leaf", "vine"],
    "glass": ["window_pane", "wine_glass", "glass_bottle", "mirror", "lens",
              "crystal", "glass_jar", "stained_glass", "tumbler", "vial"],
    "leather": ["suede", "cowhide", "leather_belt", "leather_jacket",
                "leather_boot", "saddle", "wallet_leather", "leather_strap",
                "patent_leather", "rawhide"],
    "metal": ["steel", "aluminum", "copper", "brass", "iron", "tin_can",
              "chrome", "wire_mesh", "sheet_metal", "bronze"],
    "paper": ["writing", "card", "postcard", "cardboard", "newspaper",
              "envelope", "tissue_paper", "notebook_paper", "wrapping_paper",
              "paper_towel"],
    "plastic": ["cling_film", "plastic_bag", "cellophane", "plastic_wrap",
                "recycling_bin", "blister_pack", "nylon", "packaging",
                "sheeting", "dixie_cup"],
    "stone": ["stonework", "marble", "brick", "rock", "menhir", "masonry",
              "curbstone", "stone_wall", "megalith", "mud_brick"],
    "water": ["puddle", "wave", "raindrop", "waterfall", "pond_surface",
              "ripple", "splash", "dew", "stream", "ice_water"],
    "wood": ["plank", "plywood", "oak_board", "timber", "bark", "driftwood",
             "wooden_crate", "parquet", "log", "sawdust"],
}

#: The ten Flickr Material Database target classes.
FMD_CLASSES: List[str] = list(MATERIAL_TREE.keys())

#: Office-Home classes grouped by semantic family (65 classes).
OFFICE_HOME_GROUPS: Dict[str, List[str]] = {
    "electronics": ["computer", "keyboard", "laptop", "monitor", "mouse",
                    "printer", "webcam", "speaker", "radio", "tv",
                    "telephone", "calculator", "batteries", "fan"],
    "furniture": ["bed", "chair", "couch", "desk_lamp", "lamp_shade",
                  "shelf", "table", "file_cabinet", "curtains"],
    "stationery": ["eraser", "folder", "marker", "notebook", "paper_clip",
                   "pen", "pencil", "postit_notes", "push_pin", "ruler",
                   "calendar", "clipboards", "scissors"],
    "kitchenware": ["bottle", "fork", "kettle", "knives", "mug", "oven",
                    "pan", "refrigerator", "sink", "spoon", "soda"],
    "tools": ["drill", "hammer", "screwdriver", "mop", "bucket",
              "trash_can", "toolbox_item"],
    "personal_items": ["backpack", "flipflops", "glasses", "helmet",
                       "sneakers", "toothbrush", "toys", "alarm_clock",
                       "candles", "flowers", "exit_sign"],
}

OFFICE_HOME_CLASSES: List[str] = [
    cls for group in OFFICE_HOME_GROUPS.values() for cls in group
]

#: Grocery Store classes grouped by coarse family.  ``oatghurt`` and
#: ``soygurt`` are part of the target task but deliberately not in the
#: vocabulary (see :data:`GROCERY_OOV_CLASSES`).
GROCERY_GROUPS: Dict[str, List[str]] = {
    "fruit": ["apple", "avocado", "banana", "kiwi", "lemon", "lime", "mango",
              "melon", "nectarine", "orange", "papaya", "passion_fruit",
              "peach", "pear", "pineapple", "plum", "pomegranate",
              "red_grapefruit", "satsumas"],
    "vegetable": ["asparagus", "aubergine", "cabbage", "carrots", "cucumber",
                  "garlic", "ginger", "leek", "mushroom", "onion", "pepper",
                  "potato", "red_beet", "tomato", "zucchini"],
    "carton_item": ["juice", "milk", "oat_milk", "sour_cream", "soy_milk",
                    "yoghurt", "carton"],
}

GROCERY_CLASSES: List[str] = [
    cls for group in GROCERY_GROUPS.values() for cls in group if cls != "carton"
]

#: Target classes of the Grocery Store task that are *not* ConceptNet
#: concepts; SCADS must be extended with new nodes for them (Example 3.2).
GROCERY_OOV_CLASSES: List[str] = ["oatghurt", "soygurt"]

#: Existing concepts each OOV class should be linked to when added to SCADS.
GROCERY_OOV_ANCHORS: Dict[str, List[str]] = {
    "oatghurt": ["yoghurt", "carton", "oat_milk"],
    "soygurt": ["yoghurt", "carton", "soy_milk"],
}

#: Templates used to procedurally derive extra related concepts for every
#: leaf class (so SCADS retrieval has a rich pool even for curated classes).
RELATED_SUFFIXES: List[str] = ["fragment", "closeup", "pattern", "stack", "pile"]
RELATED_PREFIXES: List[str] = ["small", "large", "vintage", "toy", "broken"]
