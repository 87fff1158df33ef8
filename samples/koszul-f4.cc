{
  "differentials": [
    [
      [
        "x + u",
        "y + 1"
      ]
    ],
    [
      [
        "y + 1"
      ],
      [
        "x + u"
      ]
    ]
  ],
  "ranks": [
    1,
    2,
    1
  ],
  "ring": {
    "field": {
      "kind": "extension-field",
      "m": 2,
      "modulus": [
        1,
        1,
        1
      ],
      "p": 2
    },
    "laurent": false,
    "order": "grlex",
    "variables": [
      "x",
      "y"
    ]
  },
  "type": "free-complex"
}
